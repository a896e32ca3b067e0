package simnet

import (
	bin "encoding/binary" // want `encoding/binary imported outside internal/le`

	//lint:allow codeccheck names a byte order and decodes nothing with it
	table "encoding/binary"
)

// peekLen decodes a length prefix itself instead of through le.Reader.
func peekLen(b []byte) uint32 { return bin.LittleEndian.Uint32(b) }

var tableOrder = table.BigEndian
