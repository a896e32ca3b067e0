package simnet

import (
	"encoding/binary"
	"testing"
)

// Test files may build raw bytes themselves: no finding.
func TestPeekLen(t *testing.T) {
	if peekLen(binary.LittleEndian.AppendUint32(nil, 7)) != 7 {
		t.Fatal("peekLen")
	}
}
