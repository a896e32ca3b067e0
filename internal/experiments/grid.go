package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/metrics"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// A grid is a sweep artifact as data: layout lays out its panels for the
// options at hand, every cell reports one value, and render prints the
// finished cells in order (nil: curves for a curve grid, tables
// otherwise). The runner (grid.run) owns everything else.
type grid struct {
	id, title string
	// dataset is a single-dataset grid's default, which one -datasets
	// value replaces; "" marks a grid spanning several datasets, whose
	// cells -datasets filters.
	dataset string
	value   value
	layout  func(sw *sweep)
	render  func(w io.Writer, sw *sweep) error
	footer  string
}

// value is what a cell reports.
type value int

const (
	curve  value = iota // the test-accuracy curve of one run
	final               // the final test accuracy of one run
	trials              // final accuracy, mean±std over Options.Trials seeds
)

// A variant is one value of a panel axis: its label and what it sets.
type variant struct {
	label string
	set   func(*setting)
}

// A sweep is a grid laid out for one Options: the text above its panels
// and the panels, in print order.
type sweep struct {
	g      grid
	o      Options
	p      profile
	ds     string // a single-dataset grid's dataset
	header string
	panels []panel
	cells  []*cell // every panel's, in layout order
}

// A panel is one printed block: a curve block (one unlabelled row) or a
// table (corner over the row labels, cols as its headers).
type panel struct {
	head, corner string
	skip         string // non-empty: the notice printed instead of the panel
	rows, cols   []string
	cells        [][]*cell // [row][col]
}

// A cell is one reported value. runs holds trials seeds for each μ it
// tunes over, μ-major; accs (the trials of the best μ by mean), curve (the
// first run's) and err are set once done is closed.
type cell struct {
	runs        []setting
	trials      int
	accs, curve []float64
	err         error
	done        chan struct{}
}

// add lays out a panel crossing rows × cols over base; nil rows is one
// unlabelled row. In a grid spanning several datasets, rows on a dataset
// -datasets leaves out are dropped, and a panel left with none. A
// label-quantity strategy asking for more classes than the dataset has
// becomes a notice instead of a panel.
func (sw *sweep) add(base setting, head, corner string, rows, cols []variant) {
	if st := base.Strategy; st.Kind == partition.LabelQuantity {
		if spec, err := data.Model(base.Dataset); err == nil && st.K > spec.Classes {
			sw.panels = append(sw.panels, panel{skip: fmt.Sprintf("\nskipping %s: dataset has only %d classes\n", st, spec.Classes)})
			return
		}
	}
	pn := panel{head: head, corner: corner}
	if rows == nil {
		rows = []variant{{}}
	}
	for _, row := range rows {
		s := row.apply(base)
		if sw.g.dataset == "" && !sw.o.wantDataset(s.Dataset) {
			continue
		}
		var line []*cell
		for _, col := range cols {
			line = append(line, sw.cell(col.apply(s)))
		}
		pn.rows, pn.cells = append(pn.rows, row.label), append(pn.cells, line)
	}
	for _, col := range cols {
		pn.cols = append(pn.cols, col.label)
	}
	if len(pn.rows) > 0 {
		sw.panels = append(sw.panels, pn)
	}
}

func (v variant) apply(s setting) setting {
	if v.set != nil {
		v.set(&s)
	}
	return s
}

// cell expands one setting into its runs. Trial t runs at seed
// Seed + t·1000003; a mean±std cell of FedProx repeats its trials for each
// μ of the profile's muGrid.
func (sw *sweep) cell(s setting) *cell {
	if sw.g.value != curve {
		s.EvalEvery = cmp.Or(s.Rounds, sw.p.rounds) // score the last round only
	}
	c := &cell{trials: 1, done: make(chan struct{})}
	mus := []float64{s.Mu}
	if sw.g.value == trials {
		c.trials = sw.o.Trials
		if s.Algorithm == fl.FedProx && len(sw.p.muGrid) > 0 {
			mus = sw.p.muGrid
		}
	}
	for _, mu := range mus {
		for t := range c.trials {
			s.Mu, s.Seed = mu, sw.o.Seed+uint64(t)*1000003
			c.runs = append(c.runs, s)
		}
	}
	sw.cells = append(sw.cells, c)
	return c
}

// expand lays the grid out for the options: a pure function, nothing
// trains until run.
func (g grid) expand(o Options) *sweep {
	o = o.normalize()
	sw := &sweep{g: g, o: o, p: profiles[o.Scale], ds: o.dataset(g.dataset)}
	g.layout(sw)
	return sw
}

// run expands the grid, trains its cells on a pool of
// Options.Concurrency workers in layout order, and renders them in that
// order as they finish — so the output streams and is the same at any
// concurrency.
func (g grid) run(h *harness) error {
	sw := g.expand(h.opt)
	cells := sw.cells
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range min(h.opt.Concurrency, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(cells)) && !stop.Load(); i = next.Add(1) - 1 {
				h.measure(cells[i])
			}
		}()
	}
	render := g.render
	if render == nil {
		render = panels
	}
	fmt.Fprint(h.out, sw.header)
	err := render(h.out, sw)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	fmt.Fprint(h.out, g.footer)
	return nil
}

// measure trains a cell's runs and keeps the trials of the best μ by mean.
func (h *harness) measure(c *cell) {
	defer close(c.done)
	best := -1.0
	for g := 0; g < len(c.runs); g += c.trials {
		accs := make([]float64, c.trials)
		for i, s := range c.runs[g : g+c.trials] {
			res, err := h.execute(s)
			if err != nil {
				c.err = fmt.Errorf("%s/%s/%s: %w", s.Dataset, s.Strategy, s.Algorithm, err)
				return
			}
			accs[i] = res.FinalAccuracy
			if g+i == 0 {
				for _, m := range res.Curve {
					c.curve = append(c.curve, m.TestAccuracy)
				}
			}
		}
		if m := metrics.Summarize(accs).Mean; m > best {
			best, c.accs = m, accs
		}
	}
}

func (c *cell) wait() error {
	<-c.done
	return c.err
}

// execute runs one setting in process: over transport pipes when its
// config needs a wire, as the lockstep simulation otherwise.
func (h *harness) execute(s setting) (*fl.Result, error) {
	cfg, spec, locals, test, err := h.job(s)
	if err != nil {
		return nil, err
	}
	return simnet.Run(cfg, spec, locals, test)
}

// panels prints a curve grid's panels as headed curve blocks and the
// others' as tables, blank-line separated.
func panels(w io.Writer, sw *sweep) error {
	for i, pn := range sw.panels {
		if i > 0 && sw.g.value != curve {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, pn.skip)
		if sw.g.value == curve {
			fmt.Fprint(w, pn.head)
			for c, label := range pn.cols {
				if err := pn.cells[0][c].wait(); err != nil {
					return err
				}
				fmt.Fprintln(w, report.Curve(label, pn.cells[0][c].curve))
			}
			continue
		}
		if pn.skip != "" {
			continue
		}
		tb := report.NewTable(pn.head, append([]string{pn.corner}, pn.cols...)...)
		for r, line := range pn.cells {
			cells, _, err := sw.texts(line)
			if err != nil {
				return err
			}
			tb.AddRow(append([]string{pn.rows[r]}, cells...)...)
		}
		tb.Render(w)
	}
	return nil
}

// texts formats a row of finished cells and says which has the best mean.
func (sw *sweep) texts(line []*cell) (texts []string, best int, err error) {
	bestMean := -1.0
	for c, cl := range line {
		if err := cl.wait(); err != nil {
			return nil, 0, err
		}
		s, text := metrics.Summarize(cl.accs), report.Percent(cl.accs[0])
		if sw.g.value == trials {
			text = s.String()
		}
		if s.Mean > bestMean {
			bestMean, best = s.Mean, c
		}
		texts = append(texts, text)
	}
	return texts, best, nil
}

// table3 prints Table III: a progress line per finished row, the table
// with each row's best algorithm, and how often each was best.
func table3(w io.Writer, sw *sweep) error {
	tb := report.NewTable("Top-1 test accuracy (mean±std over trials)",
		"category", "dataset", "partitioning", "FedAvg", "FedProx", "SCAFFOLD", "FedNova", "best")
	wins := make([]int, 4)
	for _, pn := range sw.panels {
		for r, line := range pn.cells {
			cells, best, err := sw.texts(line)
			if err != nil {
				return err
			}
			wins[best]++
			s, winner := line[0].runs[0], string(line[best].runs[0].Algorithm)
			tb.AddRow(slices.Concat([]string{pn.rows[r], s.Dataset, s.Strategy.String()}, cells, []string{winner})...)
			fmt.Fprintf(w, "done: %-13s %-8s %-14s avg=%s prox=%s scaf=%s nova=%s best=%s\n",
				pn.rows[r], s.Dataset, s.Strategy, cells[0], cells[1], cells[2], cells[3], winner)
		}
	}
	tb.Render(w)
	fmt.Fprintf(w, "\ntimes best: FedAvg=%d FedProx=%d SCAFFOLD=%d FedNova=%d\n", wins[0], wins[1], wins[2], wins[3])
	return nil
}

// leaderboard ranks the algorithms within each setting (row) by final
// accuracy and places them by mean rank; ties keep algorithm order.
func leaderboard(w io.Writer, sw *sweep) error {
	if len(sw.panels) == 0 {
		return fmt.Errorf("experiments: leaderboard had no settings after filtering")
	}
	rankSum := map[fl.Algorithm]float64{}
	for _, line := range sw.panels[0].cells {
		if _, _, err := sw.texts(line); err != nil { // waits for the row
			return err
		}
		s := line[0].runs[0]
		fmt.Fprintf(w, "%s under %s:", s.Dataset, s.Strategy)
		ranked := slices.Clone(line)
		slices.SortStableFunc(ranked, func(a, b *cell) int { return cmp.Compare(b.accs[0], a.accs[0]) })
		for i, c := range ranked {
			rankSum[c.runs[0].Algorithm] += float64(i + 1)
			fmt.Fprintf(w, "  %s=%.3f", c.runs[0].Algorithm, c.accs[0])
		}
		fmt.Fprintln(w)
	}
	algos := fl.ExtendedAlgorithms()
	slices.SortStableFunc(algos, func(a, b fl.Algorithm) int { return cmp.Compare(rankSum[a], rankSum[b]) })
	tb := report.NewTable("\nLeaderboard (lower mean rank is better)", "place", "algorithm", "mean rank")
	for i, a := range algos {
		tb.AddRow(fmt.Sprint(i+1), string(a), fmt.Sprintf("%.2f", rankSum[a]/float64(len(sw.panels[0].cells))))
	}
	tb.Render(w)
	return nil
}
