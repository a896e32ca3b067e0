package simnet

import (
	"encoding/binary" // want `encoding/binary imported outside internal/le`
	"errors"
)

// ProtoVersion gates every layout change in this toy codec.
const ProtoVersion = 1

var errShort = errors.New("short buffer")

// AMsg round-trips, sweeps and fuzzes: fully covered, no findings.
type AMsg struct{ X uint32 }

// BMsg is covered through the allFixtures helper, proving evidence
// gathering follows one level of same-package calls.
type BMsg struct{ Y uint64 }

// CMsg is marshalled but never decoded and never tested.
type CMsg struct{ Z uint32 }

func AppendMarshal(dst []byte, m any) ([]byte, error) {
	switch m := m.(type) {
	case AMsg:
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, m.X)
	case BMsg:
		dst = append(dst, 2)
		dst = binary.LittleEndian.AppendUint64(dst, m.Y)
	case CMsg: // want `message type CMsg is marshalled but never decoded` `CMsg has no codec round-trip test` `CMsg has no truncation sweep` `CMsg is not seeded into the decode fuzz corpus`
		dst = append(dst, 3)
		dst = binary.LittleEndian.AppendUint32(dst, m.Z)
	default:
		return nil, errors.New("unknown message")
	}
	return dst, nil
}

func Marshal(m any) ([]byte, error) { return AppendMarshal(nil, m) }

func Unmarshal(b []byte) (any, error) {
	if len(b) < 2 {
		return nil, errShort
	}
	switch b[0] {
	case 1:
		if len(b) != 5 {
			return nil, errShort
		}
		return AMsg{X: binary.LittleEndian.Uint32(b[1:])}, nil
	case 2:
		if len(b) != 9 {
			return nil, errShort
		}
		return BMsg{Y: binary.LittleEndian.Uint64(b[1:])}, nil
	}
	return nil, errShort
}
