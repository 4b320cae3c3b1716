package ocbcast_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repository's documentation contract, checked over go/parser from
// the module root (this package's directory):
//
//   - every Go package in the tree has a package doc comment;
//   - every exported identifier of the strict packages has a doc
//     comment — a group doc on a const/var/type block covers the block;
//   - every relative link in the listed markdown files resolves.

// strictPkgs are the directories whose exported identifiers must all
// carry doc comments.
var strictPkgs = []string{".", "internal/model", "internal/occoll"}

// parseDir parses a directory's non-test Go files.
func parseDir(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files
}

func TestPackageDocs(t *testing.T) {
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range dirs {
		_, files := parseDir(t, dir)
		documented := false
		for _, f := range files {
			documented = documented || strings.TrimSpace(f.Doc.Text()) != ""
		}
		if !documented {
			t.Errorf("%s: package %s has no package doc comment", dir, files[0].Name.Name)
		}
	}
}

func TestExportedDocs(t *testing.T) {
	for _, dir := range strictPkgs {
		fset, files := parseDir(t, dir)
		missing := func(n ast.Node, what string) {
			t.Errorf("%s: exported %s has no doc comment", fset.Position(n.Pos()), what)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						missing(d, d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // a group doc covers the whole block
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								missing(s, s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && s.Doc == nil && s.Comment == nil {
									missing(s, name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// linkRe matches markdown link targets: [text](target).
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestMarkdownLinks(t *testing.T) {
	for _, md := range []string{"README.md", "ARCHITECTURE.md", "examples/README.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(md), target)); err != nil {
				t.Errorf("%s: dangling link %q", md, m[1])
			}
		}
	}
}
