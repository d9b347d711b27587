package repro_test

// TestNoUnreachableInternalCode keeps code that nothing runs out of the
// module. It type-checks every package of the module from its non-test
// files and walks references from the programs' entry points:
//
//   - every func main, init and package-level initializer;
//   - every method whose name some interface declares, since a dynamic
//     call through an interface can reach it;
//   - the allowlist below.
//
// No package's exported names are roots: public API of package peering
// that only tests call is reported like any other function. A call
// through an interface keeps every method of that name; a call on a
// concrete type keeps only that type's method. The walk so
// over-approximates what runs and never reports a function that some
// entry point can call. Every function of every non-test package that
// the walk does not reach is reported with its file:line. A helper that
// only tests use belongs in a _test.go file; one that several packages'
// tests share, or code kept for a stated reason, goes on the allowlist.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names code that stays although no entry point reaches it.
// An entry is a module-relative file (every function in it is kept) or a
// qualified name: a function, a type (its methods are kept), or a method.
// Entries are roots of the walk, so what they call is kept with them.
var reachAllowlist = map[string]string{
	"internal/chaos/crash.go":                   "the Crasher the ctlplane and peering crash soaks arm across packages",
	"internal/core.Router.SetNeighborRateLimit": "the §4.7 per-neighbor limiter, not yet wired into the platform",
	"internal/bpf.RateLimiter":                  "the BPF program behind SetNeighborRateLimit",
	"internal/inet/debug.go":                    "the Appendix A troubleshooting reproduction EXPERIMENTS.md cites",
	"internal/netsim.Host.Handle":               "the protocol-handler hook the netsim and core packet tests register their receivers with",
	"internal/rpki.Client.Serial":               "the RTR client's sync point, which the peering RPKI tests wait on",
	"internal/rpki.Store.Revoke":                "ROA revocation, which the rpki and peering RTR tests drive withdrawals with",
	"internal/telemetry.Emitter.Dropped":        "one emitter's drop count, which the telemetry and peering monitor tests assert on; the registry counter is process-wide",
	"peering.Client.DialTCP":                    "the remote side of peeringd -listen, which no binary dials yet",
}

type listedPackage struct {
	ImportPath, Name, Dir string
	GoFiles               []string
	Standard              bool
	Module                *struct{ Path string }
}

// moduleImporter resolves the module's own packages from those already
// checked and type-checks the standard library from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

type checkedPackage struct {
	rel   string // module-relative directory, "" for the root
	name  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

type funcNode struct {
	key  string // module-relative qualified name, e.g. internal/core.Router.Forward
	file string // module-relative file
	line int
	body *ast.BlockStmt
	pkg  *checkedPackage
}

func TestNoUnreachableInternalCode(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}

	fset := token.NewFileSet()
	imp := moduleImporter{
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*checkedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if lp.Standard {
			continue
		}
		cp := &checkedPackage{
			rel:  strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/"),
			name: lp.Name,
			info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		}
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, af)
		}
		conf := types.Config{Importer: imp}
		cp.pkg, err = conf.Check(lp.ImportPath, fset, cp.files, cp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		imp.checked[lp.ImportPath] = cp.pkg
		pkgs = append(pkgs, cp)
	}

	// Index every function and method declared in the module.
	funcs := map[*types.Func]*funcNode{}
	byMethodName := map[string][]*types.Func{}
	for _, cp := range pkgs {
		for _, f := range cp.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := cp.info.Defs[fd.Name].(*types.Func)
				pos := fset.Position(fd.Pos())
				file := path.Join(cp.rel, filepath.Base(pos.Filename))
				funcs[fn] = &funcNode{key: funcKey(cp.rel, fn), file: file, line: pos.Line, body: fd.Body, pkg: cp}
				if fd.Recv != nil {
					byMethodName[fn.Name()] = append(byMethodName[fn.Name()], fn)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	usedMethodNames := map[string]bool{}
	var queue []*types.Func
	reach := func(fn *types.Func) {
		fn = fn.Origin()
		if _, ours := funcs[fn]; !ours || reached[fn] {
			return
		}
		reached[fn] = true
		queue = append(queue, fn)
	}
	useMethodName := func(name string) {
		if usedMethodNames[name] {
			return
		}
		usedMethodNames[name] = true
		for _, m := range byMethodName[name] {
			reach(m)
		}
	}
	visit := func(cp *checkedPackage, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := cp.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				useMethodName(fn.Name())
			}
			reach(fn)
			return true
		})
	}

	// Roots: entry points, initializers, interface methods and the
	// allowlist.
	allowHit := map[string]bool{}
	for fn, node := range funcs {
		name, recv := fn.Name(), fn.Type().(*types.Signature).Recv()
		if recv == nil && (name == "init" || name == "main" && node.pkg.name == "main") {
			reach(fn)
		}
		for entry := range reachAllowlist {
			if node.file == entry || node.key == entry || strings.HasPrefix(node.key, entry+".") {
				allowHit[entry] = true
				reach(fn)
			}
		}
	}
	for entry, reason := range reachAllowlist {
		if !allowHit[entry] {
			t.Errorf("allowlist entry %s (%s) matches no function; delete it", entry, reason)
		}
	}
	if len(reachAllowlist) > 10 {
		t.Errorf("allowlist has %d entries; keep it to 10", len(reachAllowlist))
	}
	seenIface := map[*types.Interface]bool{}
	ifaceMethods := func(it *types.Interface) {
		if seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			useMethodName(it.Method(i).Name())
		}
	}
	for _, cp := range pkgs {
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaceMethods(it)
			}
		}
		for _, f := range cp.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					visit(cp, gd)
				}
			}
		}
	}
	// Interfaces of every imported package, the standard library
	// included: fmt calls String, sort calls Less, net/http calls
	// ServeHTTP.
	seenPkg := map[*types.Package]bool{}
	var walkPkg func(p *types.Package)
	walkPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaceMethods(it)
				}
			}
		}
		for _, dep := range p.Imports() {
			walkPkg(dep)
		}
	}
	for _, cp := range pkgs {
		walkPkg(cp.pkg)
	}

	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if node := funcs[fn]; node.body != nil {
			visit(node.pkg, node.body)
		}
	}

	var dead []*funcNode
	for fn, node := range funcs {
		if !reached[fn] {
			dead = append(dead, node)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	for _, node := range dead {
		t.Errorf("%s:%d: %s is reached from no entry point; delete it, move it into a _test.go file, or allowlist it with a reason",
			node.file, node.line, node.key)
	}
}

// funcKey names fn as pkg.Func or pkg.Type.Method, pkg module-relative.
func funcKey(rel string, fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return rel + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return rel + "." + fn.Name()
}
