// Package le stands in for the byte layer: the one package whose non-test
// files may import encoding/binary.
package le

import "encoding/binary"

func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
