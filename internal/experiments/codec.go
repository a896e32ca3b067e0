package experiments

import (
	"fmt"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "codec", Title: "Quantized wire codecs: accuracy vs communication bytes at equal rounds", Run: runCodec})
}

// runCodec is the accuracy-vs-bytes sweep for the quantized chunk codecs:
// the identical federation — same partition, same seeds, same round
// schedule — runs over loopback TCP once per wire codec, and the table
// reports what each lossy wire costs in final accuracy against what it
// saves in measured bytes. CommBytes is counted from the actual frames on
// the wire, so the reduction column is the on-wire truth, not an analytic
// estimate.
// The paper's Table IV reports communication size per algorithm at f64;
// this sweep adds the codec axis its Section V leaves open.
func runCodec(h *Harness) error {
	ds := "adult"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	s := gridCell(ds, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, fl.FedAvg)
	s.ChunkSize = 512 // the chunk frame is the quantization unit
	cfg, spec, locals, test, err := h.job(s)
	if err != nil {
		return err
	}
	codecs := []fl.Codec{fl.CodecF64, fl.CodecF32, fl.CodecInt8, fl.CodecInt4}
	fmt.Fprintf(h.Out, "%s, %s, %d parties, %d rounds over loopback TCP, codec negotiated at the hello\n\n",
		ds, s.Strategy, len(locals), cfg.Rounds)
	tbl := report.NewTable("accuracy vs bytes", "codec", "acc", "Δacc vs f64", "total bytes", "bytes/round", "reduction", "wall")
	var baseAcc float64
	var baseBytes int64
	for i, codec := range codecs {
		c := cfg
		c.Codec = codec
		// Every party dials clean; the measured CommBytes is the cell's
		// payload metric, wall-clock is reported for context only.
		wall, res, err := runTimedCell(c, spec, locals, test, nil)
		if err != nil {
			return fmt.Errorf("codec %s: %w", codec, err)
		}
		if i == 0 {
			baseAcc, baseBytes = res.FinalAccuracy, res.TotalCommBytes
		}
		tbl.AddRow(string(codec),
			report.Percent(res.FinalAccuracy),
			fmt.Sprintf("%+.2fpt", (res.FinalAccuracy-baseAcc)*100),
			report.Bytes(float64(res.TotalCommBytes)),
			report.Bytes(res.CommBytesPerRound),
			fmt.Sprintf("%.2fx", float64(baseBytes)/float64(res.TotalCommBytes)),
			wall.Round(time.Millisecond).String())
	}
	tbl.Render(h.Out)
	fmt.Fprintln(h.Out, "\nexpected shape: f32 halves the bytes at no visible accuracy cost; int8 cuts them ~7x within a point of f64; int4 is the aggressive end — ~13x fewer bytes, worth it only when the link, not the math, is the bottleneck")
	return nil
}
