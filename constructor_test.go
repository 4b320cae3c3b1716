package ocbcast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A core's collective stack — rcce port, collective layer, OC-Bcast
// broadcaster with its fence routed through the port, one-sided engine
// — is assembled in one place, algsel.Env.Init, so no program can forget
// a layer or the fence. TestOneStackConstructor enforces it over the
// syntax of every non-test Go file outside bench/ (whose probes drive
// single layers on purpose). Outside internal/algsel/env.go and the
// layers' own packages no file may
//
//   - call a layer's constructor or SetFence;
//   - hold a layer by value — a Port, Comm, Broadcaster or Collectives
//     not behind a pointer — which is the only way to get one to Init;
//   - Init an Env's layers (a Port, Comm or BC field).

// stackPackages are the layers' packages, their constructors and their
// per-core types.
var stackPackages = map[string]struct{ constructor, typ string }{
	"repro/internal/rcce":       {"NewPort", "Port"},
	"repro/internal/collective": {"NewComm", "Comm"},
	"repro/internal/core":       {"NewBroadcaster", "Broadcaster"},
	"repro/internal/occoll":     {"New", "Collectives"},
}

const stackConstructor = "internal/algsel/env.go"

type goFile struct {
	path string // slash-separated, relative to the module root
	ast  *ast.File
}

// nonTestFiles parses every non-test Go file of the module outside
// bench/ and hidden directories.
func nonTestFiles(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(path), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath maps a file's directory to its package's import path.
func importPath(file string) string {
	if dir := filepath.ToSlash(filepath.Dir(file)); dir != "." {
		return "repro/" + dir
	}
	return "repro"
}

// below returns the module packages the layers import, directly or not:
// a Port, Comm, Broadcaster or Collectives cannot reach them without an
// import cycle, so their Init calls are other types' (mem's MPB has a
// Port of its own).
func below(files []goFile) map[string]bool {
	imports := map[string][]string{}
	for _, f := range files {
		pkg := importPath(f.path)
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			imports[pkg] = append(imports[pkg], p)
		}
	}
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		for _, p := range imports[pkg] {
			if strings.HasPrefix(p, "repro/") && !seen[p] {
				seen[p] = true
				visit(p)
			}
		}
	}
	for pkg := range stackPackages {
		visit(pkg)
	}
	return seen
}

func TestOneStackConstructor(t *testing.T) {
	files := nonTestFiles(t)
	if len(files) < 50 {
		t.Fatalf("walked %d files: not the module root?", len(files))
	}
	lower := below(files)
	for _, f := range files {
		pkg := importPath(f.path)
		if _, ok := stackPackages[pkg]; ok || f.path == stackConstructor {
			continue
		}
		// The layer packages this file imports, by local name.
		layers := map[string]string{}
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if _, ok := stackPackages[p]; ok {
				name := p[strings.LastIndex(p, "/")+1:]
				if spec.Name != nil {
					name = spec.Name.Name
				}
				layers[name] = p
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if star, ok := n.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && layers[x.Name] != "" && stackPackages[layers[x.Name]].typ == sel.Sel.Name {
						return false // a pointer to a layer is fine
					}
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && layers[x.Name] != "" {
				switch sel.Sel.Name {
				case stackPackages[layers[x.Name]].constructor:
					t.Errorf("%s: calls %s.%s: a core's stack is built by algsel.Env.Init", f.path, x.Name, sel.Sel.Name)
				case stackPackages[layers[x.Name]].typ:
					t.Errorf("%s: holds a %s.%s by value: a core's stack is built by algsel.Env.Init", f.path, x.Name, sel.Sel.Name)
				}
			}
			if sel.Sel.Name == "SetFence" {
				t.Errorf("%s: calls SetFence: a core's stack is built by algsel.Env.Init", f.path)
			}
			if in, ok := sel.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Init" && !lower[pkg] &&
				(in.Sel.Name == "Port" || in.Sel.Name == "Comm" || in.Sel.Name == "BC") {
				t.Errorf("%s: calls .%s.Init: a core's stack is built by algsel.Env.Init", f.path, in.Sel.Name)
			}
			return true
		})
	}
}
