package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// entryPoints are the programs the suite ships: the gbench binaries
// (gbench worker included), the benchmark referee and the two
// examples. Every internal package must be reachable from one of them;
// a package only its own tests import is code the benchmark never runs.
var entryPoints = []string{"./cmd/...", "./benchmark", "./examples/..."}

func TestEveryInternalPackageHasAnEntryPoint(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goBin, append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, pkg := range list(append([]string{"-deps"}, entryPoints...)...) {
		reached[pkg] = true
	}
	for _, pkg := range list("./internal/...") {
		if !reached[pkg] {
			t.Errorf("%s is imported by no entry point (%s)", pkg, strings.Join(entryPoints, " "))
		}
	}
}

// referenceOnly lists the internal declarations no entry point reaches
// that stay on purpose, each with the reason: the differential test
// that compares against it, or the test hook it is. Everything else
// the function-level guard finds unreachable is dead code to delete.
var referenceOnly = map[string]string{
	"abea.FullAlign":                "exhaustive reference of TestBandedMatchesFullOnCleanSignal and TestBandedCloseToFullWithNoise",
	"abea.alignInto":                "scalar band sweep TestAlignLanesBitIdentical holds the lanes to bit for bit",
	"bsw.AlignFull":                 "unbanded reference of TestAlignFullMatchesNaive and TestBandedNarrowLowerBound",
	"fmindex.Index.occ4Scalar":      "byte-scan rank FuzzOccBlock, TestOcc4PackedDifferential and TestLFMatchesScalarRank compare against",
	"fmindex.Index.extendForwardT":  "all-four extension TestExtend1MatchesExtend4 holds extendForward1 to; through it extendBackwardT and occ4t, which hold extendBackward1 and the packed rank",
	"grm.ComputeNaive":              "one-dot-product-at-a-time reference TestComputeDifferential holds Blocks.Compute to bit for bit; through it Genotypes.Standardize, whose dense Z matrix TestMonomorphicSiteContributesNothing inspects",
	"kmercnt.CountSeq":              "scalar reference the CountSeqPackedBatched differential tests compare tables against",
	"nnbase.EditDistance":           "accuracy metric the basecall tests score calls with",
	"phmm.EvaluateRegionScalarInto": "scalar region reference of the IntoDifferential tests and the lanes benchmark pair; through it LikelihoodInto, forwardInto and fallback64, the one-pair scalar definitions every lane kernel and the float64 redo are held to",
	"phmm.laneTolerance":            "bound the haplotype-lane differential tests allow until those lanes are exact",
	"pileup.CountRegionScalar":      "per-base reference the packed match-run differential tests compare against",
	"poa.ConsensusScalarInto":       "scalar reference of TestLaneEligibleGuard, FuzzConsensusLaneBoundary and core's shard executor test",
	"cpufeat.ForceForTest":          "test hook that lowers the SIMD ceiling so tests cover both sides of a dispatch",
	"genome.MustFromString":         "test hook for constant sequences",
	"poa.Graph.NumNodes":            "test hook: the graph shape the lane and scalar differential tests compare",
	"poa.Graph.NumEdges":            "test hook: the graph shape the lane and scalar differential tests compare",
	"perf.TaskStats.Work":           "test hook: the per-task samples the schedule-order tests compare",
	"prefetch.HaveAsm":              "test hook: whether Ptr is a real prefetch on this architecture",
	"nn.sigmoid64Asm":               "test hook: the float64 sigmoid core the activation tests check alone",
	"nn.tanh64Asm":                  "test hook: the float64 tanh core the activation tests check alone",
}

// stdlibMethods are method names a standard-library interface calls
// without this module ever spelling them: a reachable type's method of
// one of these names is live.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// guardArchs are the file sets the function guard type-checks: every
// build-tagged variant of a declaration is in one of them.
var guardArchs = []string{"amd64", "arm64"}

// TestEveryInternalFunctionHasAnEntryPoint is the function-level twin of
// the package guard. It type-checks every non-test Go file of the
// module once per file set in guardArchs and walks what each
// declaration uses (go/types' Info.Uses: a reference names one object,
// never every object of that name) from the roots: every declaration
// of an entry-point package or the root package, every init, every
// package-level var, and the referenceOnly entries. A method is live
// when it is selected, or when its receiver type is reachable and
// implements a used interface method of the same name, or the method
// is one of stdlibMethods. Generic instances count as their origin; a
// const of an iota group is live when any const of the group is. A
// top-level func, method, type or const under internal/ that is dead
// in every file set declaring it must be deleted or listed in
// referenceOnly. An entry the other roots reach, or another entry
// uses, is stale: a reference's helpers need no entry of their own.
func TestEveryInternalFunctionHasAnEntryPoint(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	parsed := map[string]*ast.File{}
	declared := map[string]bool{} // checked keys, over every file set
	live := map[string]bool{}     // checked keys reached in some file set
	// Per referenceOnly key, the file sets that declare it, that reach
	// it from the other roots, and that reach it from another entry.
	inSets, fromRoots, helper := map[string]int{}, map[string]int{}, map[string]int{}
	for _, arch := range guardArchs {
		info, pkgs, err := checkModule(fset, arch, std, parsed)
		if err != nil {
			t.Fatalf("type-checking the %s file set: %v", arch, err)
		}
		w := newGuardWalk(info, pkgs)
		for _, d := range w.decls {
			if d.root {
				w.visit(d)
			}
		}
		w.fixpoint()
		for key := range referenceOnly {
			if ds := w.byKey[key]; len(ds) > 0 {
				inSets[key]++
				if slices.ContainsFunc(ds, func(d *guardDecl) bool { return w.reached[d] }) {
					fromRoots[key]++
				}
			}
		}
		for key := range referenceOnly {
			for _, d := range w.byKey[key] {
				w.visit(d)
			}
		}
		w.fixpoint()
		for key := range referenceOnly {
			if slices.ContainsFunc(w.byKey[key], func(d *guardDecl) bool { return w.used[d] }) {
				helper[key]++
			}
		}
		for _, d := range w.decls {
			if !d.checked {
				continue
			}
			for _, key := range d.keys {
				declared[key] = true
				live[key] = live[key] || w.reached[d]
			}
		}
	}

	for key, why := range referenceOnly {
		switch {
		case !declared[key]:
			t.Errorf("referenceOnly[%q] names no declaration; drop the entry", key)
		case fromRoots[key] == inSets[key]:
			t.Errorf("referenceOnly[%q] is reached from an entry point now; drop the entry", key)
		case helper[key] == inSets[key]:
			t.Errorf("referenceOnly[%q] is used by another referenceOnly entry; drop the entry", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("referenceOnly[%q] gives no reason", key)
		}
	}
	var dead []string
	for key := range declared {
		if !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is reached from no entry point (%s); delete it or list it in referenceOnly with a reason",
			key, strings.Join(entryPoints, " "))
	}
}

// guardPkg is one package of a file set: its files and whether it lies
// under internal/.
type guardPkg struct {
	internal bool
	files    []*ast.File
}

// checkModule type-checks the module's non-test files that build for
// linux/arch, every package into one Info. parsed caches the ASTs
// across file sets; the standard library comes from std.
func checkModule(fset *token.FileSet, arch string, std types.Importer, parsed map[string]*ast.File) (*types.Info, []*guardPkg, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, nil, err
	}
	modPath := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", arch
	byPath := map[string]*guardPkg{}
	var paths []string
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := ctx.MatchFile(dir, filepath.Base(path)); err != nil || !ok {
			return err
		}
		f := parsed[path]
		if f == nil {
			if f, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
			parsed[path] = f
		}
		imp := modPath
		if dir != "." {
			imp += "/" + filepath.ToSlash(dir)
		}
		p := byPath[imp]
		if p == nil {
			p = &guardPkg{internal: strings.HasPrefix(filepath.ToSlash(dir), "internal/")}
			byPath[imp] = p
			paths = append(paths, imp)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	info := &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	checked := map[string]*types.Package{}
	var pkgs []*guardPkg
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		p := byPath[path]
		if p == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", arch)}
		pkg, err := conf.Check(path, fset, p.files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		pkgs = append(pkgs, p)
		return pkg, nil
	}
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, nil, err
		}
	}
	return info, pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// guardDecl is one top-level declaration of a file set: a func, a
// method, a type, a var or const spec, or a whole iota group.
type guardDecl struct {
	keys    []string   // pkg.Name, or pkg.Recv.Name for a method
	nodes   []ast.Node // walked for the objects they use
	root    bool
	checked bool // a func, method, type or const under internal/
}

// guardWalk is the reachability walk over one type-checked file set.
type guardWalk struct {
	info    *types.Info
	decls   []*guardDecl
	byObj   map[types.Object]*guardDecl
	byKey   map[string][]*guardDecl
	reached map[*guardDecl]bool
	used    map[*guardDecl]bool // declarations another declaration uses
	queue   []*guardDecl

	named  []*types.MethodSet            // method sets of the reachable module types, as pointers
	seen   map[string]bool               // the types in named, by type string
	ifaces map[string][]*types.Interface // used interface methods, by method name
}

func newGuardWalk(info *types.Info, pkgs []*guardPkg) *guardWalk {
	w := &guardWalk{
		info:    info,
		byObj:   map[types.Object]*guardDecl{},
		byKey:   map[string][]*guardDecl{},
		reached: map[*guardDecl]bool{},
		used:    map[*guardDecl]bool{},
		seen:    map[string]bool{},
		ifaces:  map[string][]*types.Interface{},
	}
	add := func(d *guardDecl, ids ...*ast.Ident) {
		w.decls = append(w.decls, d)
		for _, id := range ids {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" {
				continue
			}
			w.byObj[obj] = d
			key := obj.Pkg().Name() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = obj.Pkg().Name() + "." + recvNamed(recv.Type()).Obj().Name() + "." + obj.Name()
				}
			}
			d.keys = append(d.keys, key)
			w.byKey[key] = append(w.byKey[key], d)
		}
	}
	iota := types.Universe.Lookup("iota")
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					init := d.Recv == nil && d.Name.Name == "init"
					add(&guardDecl{nodes: []ast.Node{d}, root: !p.internal || init, checked: p.internal && !init}, d.Name)
				case *ast.GenDecl:
					group := false // a const block counting on iota is one declaration
					if d.Tok == token.CONST {
						ast.Inspect(d, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && info.Uses[id] == iota {
								group = true
							}
							return !group
						})
					}
					if group {
						gd := &guardDecl{nodes: []ast.Node{d}, root: !p.internal, checked: p.internal}
						var ids []*ast.Ident
						for _, s := range d.Specs {
							ids = append(ids, s.(*ast.ValueSpec).Names...)
						}
						add(gd, ids...)
						continue
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(&guardDecl{nodes: []ast.Node{s}, root: !p.internal, checked: p.internal}, s.Name)
						case *ast.ValueSpec:
							vd := &guardDecl{nodes: []ast.Node{s}, root: !p.internal || d.Tok == token.VAR}
							add(vd, s.Names...)
							vd.checked = p.internal && d.Tok == token.CONST && len(vd.keys) > 0
						}
					}
				}
			}
		}
	}
	return w
}

// recvNamed is the named type of a method receiver: T in (t T), (t *T)
// and (t *T[K]).
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// visit marks d reached and queues it for its walk.
func (w *guardWalk) visit(d *guardDecl) {
	if !w.reached[d] {
		w.reached[d] = true
		w.queue = append(w.queue, d)
	}
}

// drain walks every queued declaration: each object it uses is
// reached, each module type it names or instantiates becomes
// reachable, and each interface method it calls becomes used.
func (w *guardWalk) drain() {
	for len(w.queue) > 0 {
		d := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		for _, n := range d.nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if inst, ok := w.info.Instances[id]; ok {
					w.addType(inst.Type)
				}
				obj := w.info.Uses[id]
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
					if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						w.useInterfaceMethod(o.Name(), recv.Type().Underlying().(*types.Interface))
					}
				case *types.Var:
					obj = o.Origin()
				case *types.TypeName:
					w.addType(o.Type())
				}
				if dd := w.byObj[obj]; dd != nil {
					w.used[dd] = w.used[dd] || dd != d
					w.visit(dd)
				}
				return true
			})
		}
	}
}

// addType makes a module-declared named type, or an instance of one,
// reachable for the interface rule.
func (w *guardWalk) addType(t types.Type) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || types.IsInterface(n) || w.byObj[n.Origin().Obj()] == nil {
		return
	}
	if n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
		return // the generic type itself: its instances are added where they are named
	}
	if key := types.TypeString(n, nil); !w.seen[key] {
		w.seen[key] = true
		w.named = append(w.named, types.NewMethodSet(types.NewPointer(n)))
	}
}

// useInterfaceMethod records a call of method name through iface.
func (w *guardWalk) useInterfaceMethod(name string, iface *types.Interface) {
	for _, have := range w.ifaces[name] {
		if have == iface {
			return
		}
	}
	w.ifaces[name] = append(w.ifaces[name], iface)
}

// fixpoint drains the queue, then makes live every method of a
// reachable type that a used interface method of its name or a
// stdlibMethods name can call, until nothing new is reached.
func (w *guardWalk) fixpoint() {
	for {
		w.drain()
		before := len(w.reached)
		for _, ms := range w.named {
			for j := 0; j < ms.Len(); j++ {
				sel := ms.At(j)
				d := w.byObj[sel.Obj().(*types.Func).Origin()]
				if d == nil || w.reached[d] {
					continue
				}
				if stdlibMethods[sel.Obj().Name()] || w.implementsUsed(sel.Recv(), sel.Obj().Name()) {
					w.visit(d)
				}
			}
		}
		if len(w.reached) == before {
			return
		}
	}
}

// implementsUsed reports whether t implements an interface whose
// method name is used.
func (w *guardWalk) implementsUsed(t types.Type, name string) bool {
	for _, iface := range w.ifaces[name] {
		if types.Implements(t, iface) {
			return true
		}
	}
	return false
}
