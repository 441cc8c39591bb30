package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
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
	"bsw.AlignFull":                 "unbanded reference of TestAlignFullMatchesNaive and TestBandedNarrowLowerBound",
	"fmindex.Index.occ4Scalar":      "byte-scan rank FuzzOccBlock, TestOcc4PackedDifferential and TestLFMatchesScalarRank compare against",
	"fmindex.Index.occ4t":           "four-base rank behind the all-four extensions, checked against occ4Scalar",
	"fmindex.Index.extendBackwardT": "all-four extension TestExtend1MatchesExtend4 holds extendBackward1 to",
	"fmindex.Index.extendForwardT":  "all-four extension TestExtend1MatchesExtend4 holds extendForward1 to",
	"grm.ComputeNaive":              "one-dot-product-at-a-time reference TestComputeDifferential holds ComputeCtx to bit for bit",
	"grm.Genotypes.Standardize":     "dense Z matrix TestMonomorphicSiteContributesNothing inspects",
	"kmercnt.CountSeq":              "scalar reference the CountSeqPackedBatched differential tests compare tables against",
	"nnbase.EditDistance":           "accuracy metric the basecall tests score calls with",
	"phmm.forwardInto":              "scalar forward definition every lane kernel is held to",
	"phmm.LikelihoodInto":           "one-pair scalar likelihood the lane and fallback differential tests compare against",
	"phmm.fallback64":               "scalar float64 redo the float64 read lanes are held to bit for bit",
	"phmm.EvaluateRegionScalarInto": "scalar region reference of the IntoDifferential tests and the lanes benchmark pair",
	"phmm.laneTolerance":            "bound the haplotype-lane differential tests allow until those lanes are exact",
	"pileup.CountRegionScalar":      "per-base reference the packed match-run differential tests compare against",
	"cpufeat.ForceForTest":          "test hook that lowers the SIMD ceiling so tests cover both sides of a dispatch",
	"parallel.ForceDispatch":        "test hook that pins the dispatch policy",
	"parallel.DispatchPolicy":       "test hook that reads the resolved dispatch policy",
	"genome.MustFromString":         "test hook for constant sequences",
	"poa.Graph.NumNodes":            "test hook: the graph shape the lane and scalar differential tests compare",
	"poa.Graph.NumEdges":            "test hook: the graph shape the lane and scalar differential tests compare",
	"perf.TaskStats.Work":           "test hook: the per-task samples the schedule-order tests compare",
	"prefetch.HaveAsm":              "test hook: whether Ptr is a real prefetch on this architecture",
	"nn.sigmoid64Asm":               "test hook: the float64 sigmoid core the activation tests check alone",
	"nn.tanh64Asm":                  "test hook: the float64 tanh core the activation tests check alone",
}

// stdlibMethods are method names a standard-library interface calls
// without this module ever spelling them.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// TestEveryInternalFunctionHasAnEntryPoint is the function-level twin of
// the package guard. It parses every non-test Go file and walks
// references by identifier name from the roots: every declaration in
// an entry-point package or a root-package file, every init, every
// package-level var, and methods named for stdlib interfaces. A
// reference to X keeps every declaration named X alive, so the walk
// over-approximates and never flags code that runs. A top-level func,
// method, type or const under internal/ that the walk misses must be
// deleted or listed in referenceOnly.
func TestEveryInternalFunctionHasAnEntryPoint(t *testing.T) {
	type decl struct {
		key     string   // pkg.Name, or pkg.Recv.Name for a method
		name    string   // the identifier references match
		node    ast.Node // walked for the names it references
		root    bool
		checked bool
	}
	var decls []*decl
	byName := map[string][]*decl{}
	declaring := map[*ast.Ident]bool{} // a declaration's own name is no reference
	add := func(d *decl, self *ast.Ident) {
		decls = append(decls, d)
		byName[d.name] = append(byName[d.name], d)
		declaring[self] = true
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/")
		pkg := f.Name.Name
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				method := d.Recv != nil
				if method {
					key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				add(&decl{
					key: key, name: d.Name.Name, node: d,
					root:    !internal || d.Name.Name == "init" || (method && stdlibMethods[d.Name.Name]),
					checked: internal,
				}, d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(&decl{key: pkg + "." + s.Name.Name, name: s.Name.Name, node: s,
							root: !internal, checked: internal}, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(&decl{key: pkg + "." + n.Name, name: n.Name, node: s,
								root:    !internal || d.Tok == token.VAR,
								checked: internal && d.Tok == token.CONST && n.Name != "_"}, n)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	var queue []*decl
	visit := func(d *decl) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] && !reached[id.Name] {
				reached[id.Name] = true
				queue = append(queue, byName[id.Name]...)
			}
			return true
		})
	}
	for _, d := range decls {
		if d.root {
			visit(d)
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		visit(d)
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		if !d.checked {
			continue
		}
		if seen[d.key] {
			continue // one declaration per build-tagged file
		}
		seen[d.key] = true
		if d.root || reached[d.name] {
			if _, ok := referenceOnly[d.key]; ok {
				t.Errorf("referenceOnly[%q] is reached from an entry point now; drop the entry", d.key)
			}
			continue
		}
		if _, ok := referenceOnly[d.key]; !ok {
			dead = append(dead, d.key)
		}
	}
	for key, why := range referenceOnly {
		if !seen[key] {
			t.Errorf("referenceOnly[%q] names no declaration; drop the entry", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("referenceOnly[%q] gives no reason", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is reached from no entry point (%s); delete it or list it in referenceOnly with a reason",
			key, strings.Join(entryPoints, " "))
	}
}

// recvName is the type name of a method receiver: T in (t T), (t *T)
// and (t *T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
