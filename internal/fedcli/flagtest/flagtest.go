// Package flagtest pins a command's flag set for the tests of the
// binaries: every flag's name and default, one per line, against a golden
// file. A refactor of how flags are declared must leave the goldens
// byte-identical; a deliberate change reruns the test with -update.
package flagtest

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the flag goldens instead of comparing")

// Golden compares fs's name=default lines with testdata/flags_<cmd>.golden.
func Golden(t *testing.T, cmd string, fs *flag.FlagSet) {
	t.Helper()
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	path := "testdata/flags_" + cmd + ".golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("%s flag set changed (name=default per line):\n--- got\n%s--- want\n%s", cmd, &got, want)
	}
}
