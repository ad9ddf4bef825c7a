package toppriv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are exported functions and methods in internal/ that no
// other non-test code names, kept on purpose. Each key is
// "package.Func" or "package.Type.Method".
var keptExports = map[string]string{
	"adversary.EvalSessionRecall":  "reports the intersection recall of the privacy measurements",
	"belief.Satisfies":             "the (ε1, ε2) predicate the tests hold every cycle to",
	"core.Obfuscator.Params":       "settings accessor of a type the facade exports as toppriv.Obfuscator",
	"index.Index.PostingsByTerm":   "test helper shared across packages",
	"textproc.Analyzer.Stemming":   "part of the analyzer settings a certified model records",
	"textproc.WithStemming":        "part of the analyzer settings a certified model records",
	"textproc.Stem":                "part of the analyzer settings a certified model records",
	"search.Client.FetchDocument":  "the Fig. 1 client's document fetch",
	"search.Server.ResetLog":       "the Fig. 1 server's adversary-log surface",
	"telemetry.Histogram.Sum":      "the metrics registry's own API",
	"telemetry.Registry.Gauge":     "the metrics registry's own API",
	"telemetry.Registry.Histogram": "the metrics registry's own API",
	"cluster.journal.CrashAfter":   "test hook for crash-recovery tests",
	"index.sliceReader.ReadByte":   "implements io.ByteReader for binary.ReadUvarint",
	"search.statusRecorder.Unwrap": "lets http.ResponseController reach the wrapped writer",
}

// TestNoUnusedExports fails on an exported function or method declared
// in internal/ whose name no other non-test code in the module mentions:
// a feature only its own tests reach is code to delete, or to justify in
// keptExports. A function counts as mentioned by any identifier of its
// name; a method only by a selector (x.Name, not pkg.Name) or an
// interface method of its name, so a type that shares the name does not
// keep it. Files
// constrained by "//go:build ignore" (generators) are not part of the
// program and are skipped.
func TestNoUnusedExports(t *testing.T) {
	type decl struct {
		key    string
		name   string
		method bool
		self   int // mentions of name inside the declaration itself
		pos    token.Position
	}
	fset := token.NewFileSet()
	idents := map[string]int{}  // every identifier
	members := map[string]int{} // selectors and interface methods
	var decls []decl
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if buildIgnored(f) {
			return nil
		}
		pkgs := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			countMentions(n, pkgs, idents, members)
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(p))
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := path.Base(dir) + "." + fn.Name.Name
			if fn.Recv != nil {
				key = path.Base(dir) + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			selfIdents, selfMembers := map[string]int{}, map[string]int{}
			ast.Inspect(fn, func(n ast.Node) bool {
				countMentions(n, pkgs, selfIdents, selfMembers)
				return true
			})
			self := selfIdents[fn.Name.Name] // the declared name counts itself
			if fn.Recv != nil {
				self = selfMembers[fn.Name.Name]
			}
			decls = append(decls, decl{key, fn.Name.Name, fn.Recv != nil, self, fset.Position(fn.Pos())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		mentions := idents[d.name]
		if d.method {
			mentions = members[d.name]
		}
		if mentions > d.self {
			if _, kept := keptExports[d.key]; kept {
				t.Errorf("%s is in keptExports but other code now names %s: drop the entry", d.key, d.name)
			}
			continue
		}
		if _, kept := keptExports[d.key]; !kept {
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no non-test code outside the declaration names it; delete it or add it to keptExports with a reason", u)
	}
	for key := range keptExports {
		if !declared[key] {
			t.Errorf("keptExports names %s, which is not declared: drop the entry", key)
		}
	}
}

// countMentions adds n to the tallies: every identifier to idents, and
// the name of an interface method or of a selector not qualified by one
// of the file's imports (pkgs) to members.
func countMentions(n ast.Node, pkgs map[string]bool, idents, members map[string]int) {
	switch x := n.(type) {
	case *ast.Ident:
		idents[x.Name]++
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && pkgs[id.Name] {
			return
		}
		members[x.Sel.Name]++
	case *ast.InterfaceType:
		for _, m := range x.Methods.List {
			for _, name := range m.Names {
				members[name.Name]++
			}
		}
	}
}

// importNames returns the names f refers to its imports by.
func importNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Name != nil {
			names[imp.Name.Name] = true
			continue
		}
		names[path.Base(strings.Trim(imp.Path.Value, `"`))] = true
	}
	return names
}

// buildIgnored reports whether f carries the "//go:build ignore"
// constraint that keeps generators out of every build.
func buildIgnored(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//go:build ignore" {
				return true
			}
		}
	}
	return false
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
