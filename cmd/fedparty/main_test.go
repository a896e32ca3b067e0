package main

import (
	"testing"

	"github.com/niid-bench/niidbench/internal/fedcli/flagtest"
)

func TestFlagsGolden(t *testing.T) {
	fs, _ := command()
	flagtest.Golden(t, "fedparty", fs)
}
