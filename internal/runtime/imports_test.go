package runtime

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingImportsNoReference pins the boundary between what is served
// and what it is measured against: no non-test file reached from
// internal/runtime or internal/serve imports a reference execution
// (internal/hwgen, internal/parser, internal/earley, internal/sim) or the
// package that holds them (internal/oracle). The walk follows
// module-local imports with go/build and stops at the root package: serve
// depends on the public facade (Platform, TagBatch), which also keeps the
// paper's hardware artifacts and single-stream references by design.
func TestServingImportsNoReference(t *testing.T) {
	const module = "cfgtag"
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{
		module + "/internal/hwgen":  true,
		module + "/internal/parser": true,
		module + "/internal/earley": true,
		module + "/internal/sim":    true,
		module + "/internal/oracle": true,
	}
	for _, start := range []string{module + "/internal/runtime", module + "/internal/serve"} {
		// via records how each package was first reached, for the report.
		via := map[string]string{start: ""}
		queue := []string{start}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if imp != module && !strings.HasPrefix(imp, module+"/") {
					continue
				}
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = path
				if forbidden[imp] {
					chain := imp
					for p := path; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Errorf("serving path imports a reference: %s", chain)
					continue
				}
				if imp != module {
					queue = append(queue, imp)
				}
			}
		}
	}
}
