package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<fig>.tiny.golden from this build, slow figures included")

// slowFigures are the figures TestFigureGoldens leaves to CI's golden
// loop (`go run ./cmd/figures -fig <fig> -scale tiny -workers 2 | diff`),
// with each one's wall time at -scale tiny -workers 2 on a 2-vCPU Xeon.
// The other eleven take under 1 s each, about 5 s in all.
var slowFigures = map[string]string{
	"1a":        "3.2 s",
	"load":      "2.0 s",
	"threshold": "2.4 s",
	"dctcp":     "2.1 s",
	"failure":   "8.3 s",
	"repair":    "5.9 s",
	"transient": "7.1 s",
}

// TestFigureGoldens runs every figure in the table at -scale tiny and
// holds its output to testdata/<fig>.tiny.golden byte for byte. After an
// intended change, `go test ./cmd/figures -run TestFigureGoldens -update`
// rewrites all eighteen goldens, and the change says why.
func TestFigureGoldens(t *testing.T) {
	// arm64 fuses multiply-adds, so its floats may differ in the last bit.
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64")
	}
	*scaleFlag, *workersFlag = "tiny", 2
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			if took, slow := slowFigures[f.name]; slow && !*update {
				t.Skipf("takes %s; CI diffs it against its golden", took)
			}
			var got bytes.Buffer
			f.run(&got)
			path := filepath.Join("testdata", f.name+".tiny.golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-fig %s -scale tiny moved from %s; this build prints:\n%s", f.name, path, got.Bytes())
			}
		})
	}
}

// TestReadmeFigures fails on a `figures -fig <name>` in README.md that
// is neither all nor a figure in the table, so a renamed or deleted
// figure cannot linger in the docs.
func TestReadmeFigures(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"all": true}
	for _, f := range figures {
		known[f.name] = true
	}
	for _, m := range regexp.MustCompile(`figures -fig ([a-z0-9]+)`).FindAllSubmatch(readme, -1) {
		if !known[string(m[1])] {
			t.Errorf("README.md runs figures -fig %s, which cmd/figures does not have", m[1])
		}
	}
}

// TestSelectedRejectsMisuse: an unknown -scale or -fig, and -csv with a
// figure that would ignore it, are errors before any figure runs.
func TestSelectedRejectsMisuse(t *testing.T) {
	defer func(fig, scale string, csv bool) {
		*figFlag, *scaleFlag, *csvFlag = fig, scale, csv
	}(*figFlag, *scaleFlag, *csvFlag)
	for _, tc := range []struct {
		fig, scale string
		csv        bool
		want       string // the flag the error names; "" for a valid selection
	}{
		{"coexist", "bogus", false, "-scale"},
		{"nope", "tiny", false, "-fig"},
		{"stats", "tiny", true, "-csv"},
		{"all", "tiny", true, "-csv"},
		{"1b", "tiny", true, ""},
		{"timeline", "paper", true, ""},
		{"all", "small", false, ""},
	} {
		*figFlag, *scaleFlag, *csvFlag = tc.fig, tc.scale, tc.csv
		_, err := selected()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-fig %s -scale %s -csv=%t: err = %v, want one naming %q", tc.fig, tc.scale, tc.csv, err, tc.want)
		}
	}
}
