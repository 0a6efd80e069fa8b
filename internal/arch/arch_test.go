// Package arch holds TestArchitecture: the repository's structural rules
// — who keeps time, who wires a node, who originates a request to
// another process, who walks the calendar, who wraps the store in
// retries, who fans out — as the rows of one table, checked against the
// type checker's view of every non-test package of the module.
// DESIGN.md §6 (*Architecture rules*) says why each rule exists. The
// package has no non-test code.
package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// module is the import path every rule names packages under.
const module = "mcbound"

// A rule forbids some uses in the packages it covers, except inside the
// packages or functions it allows. A use is named as the type checker
// sees it, whatever the source calls it: a function or method by its
// types.Func full name ("time.Sleep", "(*net/http.Client).Get"), a go
// statement as "go", a type expression whose type is a func() time.Time
// as "func() time.Time", and a keyed field of a struct literal, set to
// anything but a constant zero, by its type and field
// ("net/http.Client.Timeout"). Allowed functions are named the same
// way, so an exception is a function, never a line.
type rule struct {
	name   string
	in     []string // covered packages ("/..." takes a tree); nil covers every package
	forbid []string
	allow  []string // package paths and function full names
}

var rules = []rule{{
	name: "clock",
	forbid: []string{
		"time.Sleep", "time.After", "time.AfterFunc", "time.NewTimer", "time.NewTicker", "time.Tick",
		"func() time.Time",
	},
	allow: []string{module + "/internal/clock"},
}, {
	name:   "clock/reads",
	in:     clockHolders,
	forbid: []string{"time.Now", "time.Since", "time.Until"},
}, {
	name: "clock/deadlines",
	in:   clockHolders,
	forbid: []string{
		"context.WithTimeout", "context.WithTimeoutCause", "context.WithDeadline", "context.WithDeadlineCause",
		"net/http.Client.Timeout",
	},
	// Serve drains a real listener after its context is done: no clock
	// reaches it, and a simulated node never listens.
	allow: []string{module + "/internal/httpapi.Serve"},
}, {
	name: "wiring",
	forbid: []string{
		module + "/internal/httpapi.New", module + "/internal/election.New",
		module + "/internal/repl.NewFollower", module + "/internal/repl.NewClient",
		module + "/internal/store.OpenDurable",
	},
	allow: []string{module + "/internal/node"},
}, {
	name:   "wiring/admission",
	forbid: []string{module + "/internal/admission.NewController"},
	allow:  []string{module + "/internal/node", module + "/internal/httpapi.New"},
}, {
	name: "peer",
	forbid: []string{
		"net/http.NewRequest", "net/http.NewRequestWithContext",
		"net/http.Get", "net/http.Post", "net/http.PostForm", "net/http.Head",
		"(*net/http.Client).Get", "(*net/http.Client).Post", "(*net/http.Client).PostForm", "(*net/http.Client).Head",
	},
	allow: []string{module + "/internal/peer"},
}, {
	name:   "calendar",
	forbid: []string{module + "/internal/online.Schedule"},
	allow:  []string{module + "/internal/simulate"},
}, {
	// The store a node reads is in process: nothing to retry, no breaker
	// to trip. benchmark/fixture, its own module, is the last caller.
	name:   "fetch/resilient",
	forbid: []string{module + "/internal/fetch.NewResilientBackend", module + "/internal/fetch.DefaultResilienceConfig"},
}, {
	name:   "fan-out",
	in:     inference,
	forbid: []string{"go"},
	allow:  []string{module + "/internal/linalg.ParallelFor", "(*" + module + "/internal/ml/rf.Classifier).Train"},
}, {
	name:   "fan-out/cores",
	in:     inference,
	forbid: []string{"runtime.GOMAXPROCS"},
	allow: []string{
		module + "/internal/linalg.ParallelFor", "(*" + module + "/internal/ml/rf.Classifier).Train",
		module + "/internal/job.UnmarshalArray",
	},
}}

// clockHolders is the packages that hold a Clock: inside them a measured
// duration can set a schedule, so the instant is read from the Clock.
var clockHolders = []string{
	module + "/internal/admission", module + "/internal/election", module + "/internal/httpapi",
	module + "/internal/node", module + "/internal/repl", module + "/internal/resilience",
	module + "/internal/router",
}

// inference is the packages of the encode → model → vote path and the
// wire decoder in front of it, which fan out only through ParallelFor
// and the forest's own tree workers.
var inference = []string{
	module + "/internal/ml/...", module + "/internal/linalg", module + "/internal/encode",
	module + "/internal/core", module + "/internal/job",
}

func TestArchitecture(t *testing.T) {
	l := list(t)
	t.Run("tree", func(t *testing.T) {
		for _, p := range l.module {
			for _, h := range l.scan(t, p.ImportPath, p.Dir, p.GoFiles) {
				t.Error(h.message(l.root))
			}
		}
	})
	t.Run("plants", func(t *testing.T) {
		plants := plantPackages(t)
		planted := map[string]bool{}
		for _, dir := range sortedKeys(plants) {
			files := plants[dir]
			rel, err := filepath.Rel("testdata", dir)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, h := range l.scan(t, module+"/"+filepath.ToSlash(rel), dir, files) {
				got[h.at()] = true
			}
			want := wants(t, l.fset, dir, files)
			for _, at := range sortedKeys(want) {
				planted[at[strings.LastIndex(at, " ")+1:]] = true
				if !got[at] {
					t.Errorf("%s/%s: the rule did not fire", dir, at)
				}
			}
			for _, at := range sortedKeys(got) {
				if !want[at] {
					t.Errorf("%s/%s: the rule fired on a line no // want marks", dir, at)
				}
			}
		}
		for _, r := range rules {
			if !planted[r.name] {
				t.Errorf("rule %s has no planted violation under testdata", r.name)
			}
		}
	})
}

// listing is the module as `go list` describes it: where each package's
// export data is, for the importer, and the module's own packages.
type listing struct {
	fset   *token.FileSet
	imp    types.Importer
	root   string
	module []goPackage
}

type goPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path, Dir string }
}

// list runs `go list -export -deps` over the module: it builds (or finds
// in the build cache) the export data of every package the module
// depends on, which the gc importer reads instead of type-checking the
// standard library from source.
func list(t *testing.T) *listing {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", module+"/...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	l := &listing{fset: token.NewFileSet()}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p goPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == module && len(p.GoFiles) > 0 {
			l.root = p.Module.Dir
			l.module = append(l.module, p)
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// hit is one forbidden use.
type hit struct {
	rule string
	what string
	pos  token.Position
	fn   string // the enclosing function's full name, "" at package level
}

func (h hit) at() string {
	return fmt.Sprintf("%s:%d %s", filepath.Base(h.pos.Filename), h.pos.Line, h.rule)
}

func (h hit) message(root string) string {
	file, err := filepath.Rel(root, h.pos.Filename)
	if err != nil {
		file = h.pos.Filename
	}
	fn := h.fn
	if fn == "" {
		fn = "package scope"
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s in %s (DESIGN.md §6, Architecture rules)",
		file, h.pos.Line, h.pos.Column, h.rule, h.what, fn)
}

// scan type-checks one package from the named files of dir and returns
// every use the rules forbid there.
func (l *listing) scan(t *testing.T, path, dir string, names []string) []hit {
	t.Helper()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l.imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	if _, err := conf.Check(path, l.fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	var hits []hit
	for _, f := range files {
		uses(info, f, func(what string, at ast.Node, fn string) {
			for _, r := range rules {
				if r.covers(path) && slices.Contains(r.forbid, what) && !slices.Contains(r.allow, path) && !slices.Contains(r.allow, fn) {
					hits = append(hits, hit{rule: r.name, what: what, pos: l.fset.Position(at.Pos()), fn: fn})
				}
			}
		})
	}
	return hits
}

func (r rule) covers(path string) bool {
	if r.in == nil {
		return true
	}
	for _, p := range r.in {
		tree, ok := strings.CutSuffix(p, "/...")
		if path == p || ok && (path == tree || strings.HasPrefix(path, tree+"/")) {
			return true
		}
	}
	return false
}

// uses walks a type-checked file and calls report with every use a rule
// can name, the node it is at and the full name of the function it is in.
func uses(info *types.Info, file *ast.File, report func(what string, at ast.Node, fn string)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.GoStmt:
			report("go", n, enclosing(info, stack))
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				report(fn.FullName(), n, enclosing(info, stack))
			}
		case *ast.CompositeLit:
			if named := structName(info.Types[n].Type); named != "" {
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && !isZero(info.Types[kv.Value]) {
						report(named+"."+kv.Key.(*ast.Ident).Name, kv.Key, enclosing(info, stack))
					}
				}
			}
		}
		if e, ok := n.(ast.Expr); ok && info.Types[e].IsType() && !declares(stack) {
			if sig, ok := info.Types[e].Type.Underlying().(*types.Signature); ok && isNowFunc(sig) {
				report("func() time.Time", n, enclosing(info, stack))
			}
		}
		return true
	})
}

// structName is the package path and name of t, or of what t points
// to, when that is a named struct type; "" otherwise.
func structName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// isZero reports whether tv is a constant zero value or nil: a keyed
// field set to it is the same as the field left out.
func isZero(tv types.TypeAndValue) bool {
	switch v := tv.Value; {
	case v == nil:
		return tv.IsNil()
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	default:
		return constant.Sign(v) == 0
	}
}

// isNowFunc reports whether sig is func() time.Time.
func isNowFunc(sig *types.Signature) bool {
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// declares reports whether the function type on top of the stack is the
// signature of a declared function or method, a function literal or an
// interface method: a function that returns a time.Time is not a seam
// that holds one.
func declares(stack []ast.Node) bool {
	if _, ok := stack[len(stack)-1].(*ast.FuncType); !ok || len(stack) < 2 {
		return false
	}
	switch stack[len(stack)-2].(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		return true
	case *ast.Field:
		if len(stack) >= 4 {
			_, ok := stack[len(stack)-4].(*ast.InterfaceType)
			return ok
		}
	}
	return false
}

// enclosing is the full name of the function declaration the top of the
// stack is in (a function literal belongs to the declaration around it),
// or "" at package level.
func enclosing(info *types.Info, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			if fn, ok := info.Defs[d.Name].(*types.Func); ok {
				return fn.FullName()
			}
			return d.Name.Name
		}
	}
	return ""
}

// plantPackages maps each directory under testdata that holds Go files
// to their names. Each is one plant package, type-checked under the
// import path its directory names (testdata/internal/repl is
// mcbound/internal/repl), so the rules cover it as they cover that
// package.
func plantPackages(t *testing.T) map[string][]string {
	t.Helper()
	plants := map[string][]string{}
	err := filepath.WalkDir("testdata", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			plants[dir] = append(plants[dir], d.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return plants
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// wants reads the `// want <rule>` comments of a plant package: each
// marks the line a use the rule forbids is on, in hit.at form.
func wants(t *testing.T, fset *token.FileSet, dir string, names []string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if r, ok := strings.CutPrefix(c.Text, "// want "); ok {
					want[fmt.Sprintf("%s:%d %s", name, fset.Position(c.Pos()).Line, r)] = true
				}
			}
		}
	}
	return want
}
