package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// The benchmark has to outlive the simplifications ROADMAP items 2 and 5
// may make, so it must not name anything they may delete.
var doomed = map[string]bool{
	"Pool": true, "InstancePool": true, "RunInstance": true, "NewRunInstance": true,
	"Lookahead": true, "LookaheadAdaptive": true, "LookaheadConservative": true,
	"LocalFraction": true, "ShardWeights": true, "SwitchLoads": true,
	"EngineBenchConfig": true, "ChurnBenchConfig": true, "SweepScaleBenchConfig": true,
	"ShardThroughputBenchConfig": true, "ShardQuietBenchConfig": true, "ShardScaleBenchConfig": true,
	"StaggeredChurnBenchConfig": true, "RedialChurnBenchConfig": true,
}

func TestSourcesAvoidDoomedAPI(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr: // pkg.Name, value.Method
				if doomed[n.Sel.Name] {
					t.Errorf("%s uses %s, which ROADMAP items 2/5 may delete", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.KeyValueExpr: // Field: value in a Config or SweepOptions literal
				if id, ok := n.Key.(*ast.Ident); ok && doomed[id.Name] {
					t.Errorf("%s sets %s, which ROADMAP items 2/5 may delete", fset.Position(n.Pos()), id.Name)
				}
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("found no sources to scan")
	}
}
