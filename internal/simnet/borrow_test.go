package simnet

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
)

// scribbleConn makes Conn.Recv's lending rule bite: the moment the next
// Recv is called it overwrites the slice the previous one returned, as a
// conn that reads every frame into one buffer would. A receiver that
// still holds undecoded bytes of an earlier frame reads all-ones: absurd
// header fields and NaN payloads, which no run survives unnoticed.
type scribbleConn struct {
	Conn
	lent []byte
}

func scribbled(c Conn) Conn { return &scribbleConn{Conn: c} }

func (s *scribbleConn) Recv() ([]byte, error) {
	for i := range s.lent {
		s.lent[i] = 0xFF
	}
	b, err := s.Conn.Recv()
	s.lent = b
	return b, err
}

// runScribbledTCP federates over loopback TCP with a scribbleConn around
// both ends of every socket: the accept loop reads hellos off scribbled
// conns, and admits them into the schedulers and readers unchanged.
func runScribbledTCP(t *testing.T, cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) *fl.Result {
	t.Helper()
	ln := mustListen(t)
	fed, err := newFederation(cfg, spec, test, len(locals), ln.ServerOptions)
	if err != nil {
		t.Fatal(err)
	}
	res, partyErrs, err := runInProcess(len(locals),
		func() (*fl.Result, error) {
			defer ln.Close()
			return fed.acceptAndRun(func() (Conn, error) {
				c, err := ln.accept()
				if err != nil {
					return nil, err
				}
				return scribbled(c), nil
			})
		},
		func(i int) error {
			return servePartyTCP(ln.Addr(), i, locals[i], spec, fed.Cfg, scribbled)
		})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	return res
}

// TestRecvBorrowContract runs whole federations with every received frame
// destroyed the moment its receiver asks for the next one. Nothing may
// change: every Recv call site — the server's hello and update readers,
// the party's broadcast and resync reads — decodes a frame before it
// reads again, which is what lets frameConn reuse one receive buffer.
func TestRecvBorrowContract(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.Rounds, cfg.ChunkSize, cfg.Mu = 3, 256, 0.01
	// sameBytes is false for the run that heals a conn loss: the resync and
	// the re-sent broadcast are extra traffic by design.
	same := func(t *testing.T, got, ref *fl.Result, sameBytes bool) {
		t.Helper()
		if !slices.Equal(got.FinalState, ref.FinalState) || got.FinalAccuracy != ref.FinalAccuracy {
			t.Fatalf("a borrowed frame was read after its conn's next Recv: final state or accuracy (%v vs %v) differs from the unwrapped run",
				got.FinalAccuracy, ref.FinalAccuracy)
		}
		if sameBytes && got.TotalCommBytes != ref.TotalCommBytes {
			t.Fatalf("moved %d bytes, unwrapped run %d", got.TotalCommBytes, ref.TotalCommBytes)
		}
	}
	for _, algo := range fl.ExtendedAlgorithms() {
		t.Run("sync/"+string(algo), func(t *testing.T) {
			c := cfg
			c.Algorithm = algo
			same(t, runScribbledTCP(t, c, spec, locals, test), mustLoopback(t, c, spec, locals, test, ServerOptions{}, nil), true)
		})
	}
	t.Run("sync/chunk=0", func(t *testing.T) {
		// One frame per vector: the frames that outgrow the buffer a
		// frameConn keeps.
		c := cfg
		c.Algorithm, c.ChunkSize = fl.Scaffold, 0
		same(t, runScribbledTCP(t, c, spec, locals, test), mustLoopback(t, c, spec, locals, test, ServerOptions{}, nil), true)
	})
	t.Run("async", func(t *testing.T) {
		c := cfg
		c.Algorithm, c.AsyncBuffer, c.Rounds = fl.Scaffold, 2, 8
		res := runScribbledTCP(t, c, spec, locals, test)
		norm, err := c.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		// Arrival order is not reproducible, so there is no reference run:
		// the schedule must complete with every fold counted, no eviction
		// (reportErrs) and a finite model.
		assertAsyncInvariants(t, res, norm, len(locals))
	})
	t.Run("rejoin", func(t *testing.T) {
		// A party dies after round 0 and rejoins: its second conn opens
		// with the ResyncMsg (SCAFFOLD's c_i rides it), read through the
		// same lending rule. The party side is wrapped; the server is the
		// real AcceptAndRun, whose listener the rejoin needs.
		c := cfg
		c.Algorithm = fl.Scaffold
		c.MinParties, c.QuorumWait = 3, 3*time.Second
		same(t, runRejoinTCP(t, c, locals, test, 1, scribbled), mustLoopback(t, c, spec, locals, test, ServerOptions{}, nil), false)
	})
}

// TestTCPConnReceiveBuffer pins what frameConn keeps: frames up to recvKeep
// land in one buffer the conn owns (so steady-state receiving allocates
// nothing), a larger frame — whole-vector framing — gets a one-off buffer
// that is not retained, and in both cases the bytes are the sender's.
func TestTCPConnReceiveBuffer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sizes := []int{100, 4096, 100, recvKeep, recvKeep + 1, 7}
	sent := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			sent <- err
			return
		}
		defer c.Close()
		conn := newFrameConn(c)
		for i, n := range sizes {
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(i + j)
			}
			if err := conn.Send(b); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := newFrameConn(c).(*frameConn)
	for i, n := range sizes {
		b, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != n {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(b), n)
		}
		for j := range b {
			if b[j] != byte(i+j) {
				t.Fatalf("frame %d byte %d: %d, want %d", i, j, b[j], byte(i+j))
			}
		}
		owned := n > 0 && cap(conn.rbuf) > 0 && &b[0] == &conn.rbuf[:1][0]
		if want := n <= recvKeep; owned != want {
			t.Fatalf("frame %d (%d bytes): read into the conn's own buffer = %v, want %v", i, n, owned, want)
		}
		if cap(conn.rbuf) > recvKeep {
			t.Fatalf("frame %d: the conn retains %d bytes, cap is %d", i, cap(conn.rbuf), recvKeep)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestGlobalFramesExactlySized pins the encode-once cache's footprint: a
// codec's frame set is one allocation of exactly its wire bytes, each
// frame a full-capacity window of it holding what Marshal would have
// produced.
func TestGlobalFramesExactlySized(t *testing.T) {
	state := make([]float64, 1001)
	for i := range state {
		state[i] = float64(i%17) - 8
	}
	control := state[:333]
	for _, chunk := range []int{0, 1, 7, 250, 5000} {
		for codec := byte(0); codec < 4; codec++ {
			frames, err := newGlobalFrames(3, state, control, chunk).frames(codec)
			if err != nil {
				t.Fatal(err)
			}
			for i, fr := range frames {
				if len(fr) != cap(fr) {
					t.Fatalf("chunk %d %s frame %d: len %d cap %d", chunk, codecName(codec), i, len(fr), cap(fr))
				}
				m, p, err := parseGlobalChunk(fr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Marshal(GlobalChunkMsg{Round: 3, Offset: m.Offset, Total: len(state) + len(control), CtrlLen: len(control),
					Chunk: chunk, Last: m.Last, Codec: codec, Payload: append(state[:len(state):len(state)], control...)[m.Offset : m.Offset+p.count]})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fr, want) {
					t.Fatalf("chunk %d %s frame %d differs from Marshal's encoding", chunk, codecName(codec), i)
				}
				if n, err := globalChunkLen(codec, p.count); err != nil || n != len(fr) {
					t.Fatalf("chunk %d %s: globalChunkLen(%d) = %d, %v; the frame is %d bytes", chunk, codecName(codec), p.count, n, err, len(fr))
				}
			}
			// The cache, one arena and one slice of windows, however many
			// frames: encoding a frame allocates nothing.
			if allocs := testing.AllocsPerRun(1, func() {
				_, _ = newGlobalFrames(3, state, control, chunk).frames(codec)
			}); allocs > 3 {
				t.Fatalf("chunk %d %s: encoding %d frames took %v allocations", chunk, codecName(codec), len(frames), allocs)
			}
		}
	}
}

// TestSendPathAllocatesNothing pins the per-frame cost of shipping a
// frame: encoding either chunk message, in every codec, into a buffer
// with room, and frameConn.Send over a pipe and over TCP, allocate
// nothing.
func TestSendPathAllocatesNothing(t *testing.T) {
	payload := make([]float64, 512)
	for i := range payload {
		payload[i] = float64(i%13) - 6
	}
	buf := make([]byte, 0, 8<<10)
	for codec := byte(0); codec < 4; codec++ {
		for _, enc := range []struct {
			name     string
			appendTo func([]byte) ([]byte, error)
		}{
			{"global", GlobalChunkMsg{Round: 3, Total: len(payload), Chunk: 512, Last: true, Codec: codec, Payload: payload}.appendTo},
			{"update", UpdateChunkMsg{Round: 3, Total: len(payload), N: 9, Tau: 2, Last: true, Codec: codec, Chunk: payload}.appendTo},
		} {
			if allocs := testing.AllocsPerRun(100, func() {
				var err error
				if buf, err = enc.appendTo(buf[:0]); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("encoding a %s chunk in %s: %v allocations per frame", enc.name, codecName(codec), allocs)
			}
		}
	}
	frame, err := GlobalChunkMsg{Total: len(payload), Last: true, Payload: payload}.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, transport := range []string{"pipe", "tcp"} {
		var a, b Conn
		if transport == "pipe" {
			a, b = pipe()
		} else {
			c, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			s, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			a, b = newFrameConn(c), newFrameConn(s)
		}
		drained := make(chan struct{})
		go func() { // the peer reads every frame into its one receive buffer
			defer close(drained)
			for {
				if _, err := b.Recv(); err != nil {
					return
				}
			}
		}()
		allocs := testing.AllocsPerRun(100, func() {
			if err := a.Send(frame); err != nil {
				t.Fatal(err)
			}
		})
		_ = a.Close()
		<-drained
		_ = b.Close()
		if allocs != 0 {
			t.Errorf("frameConn.Send over %s: %v allocations per frame", transport, allocs)
		}
	}
}

// parkConn is a server end for TestRecycledCacheNeverRewrittenUnderSender:
// the parked party's first broadcast stops after its first frame until
// release is closed (park is shared, so only one conn ever parks), and no
// update reaches the server before it stopped, so the parked broadcast is
// the run's first generation. Every hello read is announced on hellos.
type parkConn struct {
	Conn
	park             *sync.Once
	parked, id       int // the party to park; the one whose hello this conn carried
	stopped, release chan struct{}
	hellos           chan<- HelloMsg
}

func (p *parkConn) Recv() ([]byte, error) {
	b, err := p.Conn.Recv()
	if err == nil && len(b) > 0 {
		switch b[0] {
		case msgHello:
			if h, derr := Unmarshal(b); derr == nil {
				p.id = h.(HelloMsg).ID
				p.hellos <- h.(HelloMsg)
			}
		case msgUpdateChunk:
			<-p.stopped
		}
	}
	return b, err
}

func (p *parkConn) Send(b []byte) error {
	if m, _, err := parseGlobalChunk(b); err == nil && p.id == p.parked && m.Offset > 0 {
		p.park.Do(func() {
			close(p.stopped)
			<-p.release
		})
	}
	return p.Conn.Send(b)
}

// broadcastLog is a party end that keeps the frames of every complete
// broadcast it reads, by round, and tells progress each round it
// completed.
type broadcastLog struct {
	Conn
	mu       *sync.Mutex
	got      map[int][][]byte
	cur      [][]byte
	progress chan<- int
}

func (l *broadcastLog) Recv() ([]byte, error) {
	b, err := l.Conn.Recv()
	if m, _, perr := parseGlobalChunk(b); err == nil && perr == nil {
		if m.Offset == 0 {
			l.cur = nil
		}
		if l.cur = append(l.cur, slices.Clone(b)); m.Last {
			l.mu.Lock()
			l.got[m.Round] = l.cur
			l.mu.Unlock()
			select {
			case l.progress <- m.Round:
			default:
			}
		}
	}
	return b, err
}

// f64Hello is a party end whose hellos advertise the f64 wire codec only,
// so an int8 server falls back to raw frames for it.
type f64Hello struct{ Conn }

func (c f64Hello) Send(b []byte) error {
	if len(b) > 0 && b[0] == msgHello {
		h, err := Unmarshal(b)
		if err != nil {
			return err
		}
		hello := h.(HelloMsg)
		hello.Codecs = 1 << wireCodecF64
		if b, err = Marshal(hello); err != nil {
			return err
		}
	}
	return c.Conn.Send(b)
}

// broadcastCodec is the wire codec a logged broadcast arrived in.
func broadcastCodec(frames [][]byte) byte {
	m, _, _ := parseGlobalChunk(frames[0])
	return m.Codec
}

// reencode decodes a logged broadcast and encodes it afresh, as the
// server's frame cache would, in codec.
func reencode(t *testing.T, frames [][]byte, codec byte) [][]byte {
	t.Helper()
	var v []float64
	var m GlobalChunkMsg
	for _, b := range frames {
		hdr, p, err := parseGlobalChunk(b)
		if err != nil {
			t.Fatal(err)
		}
		m = hdr
		c, err := p.decode()
		if err != nil {
			t.Fatal(err)
		}
		v = append(v, c...)
	}
	state, control := v[:m.Total-m.CtrlLen], v[m.Total-m.CtrlLen:]
	if m.CtrlLen == 0 {
		control = nil
	}
	fresh, err := newGlobalFrames(m.Round, state, control, m.Chunk).frames(codec)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestRecycledCacheNeverRewrittenUnderSender parks one party's first
// broadcast after its first frame: a recycled frame cache — its arenas
// and, under async, its snapshot — must never be rewritten under a sender
// still shipping it. Under async (AsyncBuffer 1) the other parties drive
// three more generations through the free list before the broadcast
// resumes; under sync the party is evicted mid-send, rejoins, and its
// fresh sender ships the round again from the cache the parked sender
// still holds. Every broadcast a party reads in full must be, byte for
// byte, what any other party read for that generation in the same codec.
// The mixed row runs int8 with the parked party advertising f64 only: its
// sender alone encodes f64, lazily from each generation's snapshot, while
// the int8 parties' generations recycle caches, so each f64 read must
// re-encode to exactly the int8 frames the others read. A sender encodes
// the moment it claims, so a run shows a snapshot refilled too early only
// when the two race; TestClaimedSnapshotOutlivesRecycling fixes the late
// encode.
func TestRecycledCacheNeverRewrittenUnderSender(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize, cfg.Rounds = 64, 8
	const parked = 2
	for _, row := range []struct {
		name         string
		async, mixed bool
	}{
		{name: "async", async: true},
		{name: "sync"},
		{name: "async-mixed-codec", async: true, mixed: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := cfg
			if row.async {
				cfg.AsyncBuffer = 1
			}
			if row.mixed {
				cfg.Codec = fl.CodecInt8
			}
			fed := pipeFed(t, cfg, spec, test, len(locals), ServerOptions{RejoinGrace: 10 * time.Second})
			cfg = fed.Cfg
			park, stopped, release := new(sync.Once), make(chan struct{}), make(chan struct{})
			hellos := make(chan HelloMsg, 64)
			fed.wrap = func(c Conn) Conn {
				return &parkConn{Conn: c, park: park, parked: parked, id: -1, stopped: stopped, release: release, hellos: hellos}
			}
			var mu sync.Mutex
			logs := make([]map[int][][]byte, len(locals))
			progress := make(chan int, 64)
			go func() {
				defer close(release)
				timeout := time.After(10 * time.Second)
				select {
				case <-stopped:
				case <-timeout:
					t.Error("10 s on, the broadcast never parked")
					return
				}
				if !row.async {
					fed.evict(parked, nil, false, errors.New("evicted mid-send"))
				}
				for {
					select {
					case g := <-progress:
						if row.async && g >= 3 {
							return
						}
					case h := <-hellos:
						if !row.async && h.Rejoin {
							return
						}
					case <-timeout:
						t.Error("10 s on, the parked broadcast still waits")
						return
					}
				}
			}()
			_, partyErrs, err := fed.federate(len(locals), func(i int) error {
				logs[i] = map[int][][]byte{}
				dial := func() (Conn, error) {
					c, err := fed.connect()
					if err != nil {
						return nil, err
					}
					if row.mixed && i == parked {
						c = f64Hello{c}
					}
					return &broadcastLog{Conn: c, mu: &mu, got: logs[i], progress: progress}, nil
				}
				conn, err := dial()
				if err != nil {
					return err
				}
				if i != parked {
					defer conn.Close()
					return serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				}
				return serveRejoining(conn, dial, i, locals[i], spec, cfg)
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)
			if _, ok := logs[parked][0]; !ok {
				t.Fatalf("party %d never read the parked broadcast in full", parked)
			}
			if _, ok := logs[0][0]; !ok {
				t.Fatal("party 0 never read the first generation")
			}
			crossed := 0
			for i := range logs {
				for j := range i {
					for g, b := range logs[i] {
						other, ok := logs[j][g]
						if !ok {
							continue
						}
						switch ci, cj := broadcastCodec(b), broadcastCodec(other); {
						case ci == cj:
							if !slices.EqualFunc(b, other, bytes.Equal) {
								t.Errorf("generation %d: party %d read other %s bytes than party %d", g, i, codecName(ci), j)
							}
						case ci == wireCodecF64 && cj == wireCodecInt8:
							crossed++
							if !slices.EqualFunc(reencode(t, b, cj), other, bytes.Equal) {
								t.Errorf("generation %d: party %d's f64 read does not encode to the int8 frames party %d read", g, i, j)
							}
						default:
							t.Errorf("generation %d: parties %d and %d read codecs %s and %s", g, i, j, codecName(ci), codecName(cj))
						}
					}
				}
			}
			if row.mixed && crossed == 0 {
				t.Error("no generation was read in both f64 and int8")
			}
		})
	}
}
