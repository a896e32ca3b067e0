package simnet

import "fmt"

// This file is the party side of the downlink. The party reads its conn
// in line: it reads one complete round broadcast (or the shutdown, or an
// error), trains, replies, and reads again, so a session owns exactly one
// assembly buffer and no goroutine of its own.
//
// The server never sends a party its next broadcast before the party's
// reply to the last (under buffered-async mode too: a party pulls its
// next generation). A server that runs ahead anyway is backpressured — its
// send blocks on a pipe, or the socket buffer fills on TCP — and the party
// answers its generations in the order they were sent.

// incomingGlobal is one complete round broadcast: its GlobalMsg, whose
// State and Control view the session's assembly buffer, and the wire codec
// it arrived in (the reply streams back in the same codec). It is valid
// until the next recvGlobal into the same buffer.
type incomingGlobal struct {
	GlobalMsg
	codec byte
}

// recvGlobal turns raw, the first frame of the server's next message, into
// a complete round broadcast, reading the rest of its frames off conn; a
// ShutdownMsg yields shutdown. The broadcast's first frame must declare
// exactly this party's stream shape — stateLen state elements and the
// ctrlLen control suffix (the parameter count under SCAFFOLD, 0
// otherwise) — checked before *buf is sized from it, so a hostile header
// cannot demand an arbitrary allocation, and a server of another model or
// algorithm is refused instead of crashing the trainer. Frames on one
// conn must keep a constant header and codec and meet the contract both
// directions share (checkFrame). Each frame decodes straight into *buf at
// its offset. A stream that fails part-way returns only the error, so the
// trainer never sees a partial global.
func recvGlobal(conn Conn, raw []byte, stateLen, ctrlLen int, buf *[]float64) (g incomingGlobal, shutdown bool, err error) {
	if len(raw) == 0 || raw[0] != msgGlobalChunk {
		msg, err := Unmarshal(raw)
		if err != nil {
			return g, false, err
		}
		if _, ok := msg.(ShutdownMsg); !ok {
			return g, false, fmt.Errorf("unexpected message %T", msg)
		}
		return g, true, nil
	}
	first, p, err := parseGlobalChunk(raw)
	if err != nil {
		return g, false, err
	}
	total, ctrl := first.Total, first.CtrlLen
	switch {
	case ctrl != ctrlLen:
		return g, false, fmt.Errorf("downlink control suffix of %d elements, this party takes %d", ctrl, ctrlLen)
	case total-ctrl != stateLen:
		return g, false, fmt.Errorf("downlink state of %d elements, this party's model has %d", total-ctrl, stateLen)
	}
	if cap(*buf) < total {
		*buf = make([]float64, total)
	}
	b := (*buf)[:total]
	for m, done := first, 0; ; {
		if m.Round != first.Round || m.Total != total || m.CtrlLen != ctrl ||
			m.Chunk != first.Chunk || m.Codec != first.Codec {
			return g, false, fmt.Errorf("downlink frame header changed mid-stream")
		}
		if err := checkFrame(m.Offset, p.count, done, total, m.Last); err != nil {
			return g, false, fmt.Errorf("downlink %w", err)
		}
		if err := p.decodeInto(b[done : done+p.count]); err != nil {
			return g, false, err
		}
		if m.Last {
			break
		}
		done += p.count
		raw, err := conn.Recv()
		if err != nil {
			return g, false, fmt.Errorf("downlink recv: %w", err)
		}
		if m, p, err = parseGlobalChunk(raw); err != nil {
			return g, false, err
		}
	}
	g = incomingGlobal{
		GlobalMsg: GlobalMsg{Round: first.Round, Chunk: first.Chunk, State: b[:stateLen]},
		codec:     first.Codec,
	}
	if ctrl > 0 {
		g.Control = b[stateLen:]
	}
	return g, false, nil
}
