package polyfit_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// -update regenerates testdata/api.txt from the current sources:
//
//	go test -run TestAPISurface ./ -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/api.txt from the current exported surface")

// TestAPISurface snapshots every exported identifier of the root package —
// funcs, methods on exported types, types (with exported struct fields and
// interface methods), consts and vars — and fails when the surface drifts
// from testdata/api.txt: any change to the exported surface must be
// deliberate (reviewed via an update to the golden file), never a side
// effect.
func TestAPISurface(t *testing.T) {
	got := exportedSurface(t)
	golden := filepath.Join("testdata", "api.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden API surface (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exported API surface drifted from %s.\n"+
			"If the change is intentional, rerun with -update and review the diff.\n%s",
			golden, surfaceDiff(string(want), got))
	}
}

// surfaceDiff renders a line-level ± diff (order-insensitive per side).
func surfaceDiff(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantSet[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	for _, l := range strings.Split(want, "\n") {
		if l != "" && !gotSet[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}

// exportedSurface parses the package in the current directory and renders
// one sorted line per exported identifier.
func exportedSurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["polyfit"]
	if !ok {
		t.Fatalf("package polyfit not found (got %v)", pkgs)
	}
	var lines []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if line, ok := funcLine(fset, d); ok {
					lines = append(lines, line)
				}
			case *ast.GenDecl:
				lines = append(lines, genLines(fset, d)...)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func funcLine(fset *token.FileSet, d *ast.FuncDecl) (string, bool) {
	if !d.Name.IsExported() {
		return "", false
	}
	recv := ""
	if d.Recv != nil {
		name, ptr := receiverType(d.Recv.List[0].Type)
		if !ast.IsExported(name) {
			return "", false
		}
		if ptr {
			name = "*" + name
		}
		recv = "(" + name + ") "
	}
	return "func " + recv + d.Name.Name + strings.TrimPrefix(render(fset, d.Type), "func"), true
}

func receiverType(expr ast.Expr) (name string, ptr bool) {
	if star, ok := expr.(*ast.StarExpr); ok {
		n, _ := receiverType(star.X)
		return n, true
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name, false
	}
	return "", false
}

func genLines(fset *token.FileSet, d *ast.GenDecl) []string {
	var lines []string
	kw := d.Tok.String() // const, var, type
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if !sp.Name.IsExported() {
				continue
			}
			assign := " "
			if sp.Assign.IsValid() {
				assign = " = " // alias declaration
			}
			lines = append(lines, "type "+sp.Name.Name+assign+renderTypeExpr(fset, sp.Type))
		case *ast.ValueSpec:
			for _, n := range sp.Names {
				if !n.IsExported() {
					continue
				}
				line := kw + " " + n.Name
				if sp.Type != nil {
					line += " " + render(fset, sp.Type)
				}
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// renderTypeExpr flattens a type declaration onto one line. Struct types
// list their exported field names and types; interface types list their
// method signatures and embeds; everything else prints verbatim.
func renderTypeExpr(fset *token.FileSet, expr ast.Expr) string {
	switch tt := expr.(type) {
	case *ast.StructType:
		var fields []string
		for _, f := range tt.Fields.List {
			typ := render(fset, f.Type)
			if len(f.Names) == 0 {
				fields = append(fields, typ) // embedded
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					fields = append(fields, n.Name+" "+typ)
				}
			}
		}
		return "struct { " + strings.Join(fields, "; ") + " }"
	case *ast.InterfaceType:
		var methods []string
		for _, m := range tt.Methods.List {
			if len(m.Names) == 0 {
				methods = append(methods, render(fset, m.Type)) // embedded interface
				continue
			}
			sig := strings.TrimPrefix(render(fset, m.Type), "func")
			for _, n := range m.Names {
				methods = append(methods, n.Name+sig)
			}
		}
		sort.Strings(methods)
		return "interface { " + strings.Join(methods, "; ") + " }"
	default:
		return render(fset, expr)
	}
}

func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}
