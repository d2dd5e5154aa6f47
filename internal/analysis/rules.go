package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// AllRules returns the project rule set in reporting order. Each rule
// enforces one contract from DESIGN.md's "Enforced invariants" section
// (§8) or the flow-sensitive concurrency discipline (§13).
func AllRules() []*Rule {
	return []*Rule{
		NakedRand(),
		TimeNow(),
		FloatEq(),
		CtxFirst(),
		PanicPolicy(),
		BareLoop(),
		ObsSpan(),
		ChanClose(),
		LockBalance(),
		GoroutineLeak(),
		WgDiscipline(),
		DeferLoop(),
	}
}

// NakedRand forbids math/rand (and math/rand/v2) outside internal/rng.
// Contract: all randomness flows through the repo's seeded xoshiro256**
// generator, whose sequence is specified in-tree; math/rand's streams are
// not stable across Go releases, so one naked call breaks bit-for-bit
// reproducibility of every seeded result.
func NakedRand() *Rule {
	return &Rule{
		Name: "nakedrand",
		Doc:  "math/rand is banned outside internal/rng; use caliqec/internal/rng for reproducible randomness",
		Run: func(p *Pass) {
			if strings.HasSuffix(p.Pkg.Path, "internal/rng") {
				return
			}
			for _, f := range p.Pkg.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						continue
					}
					if path == "math/rand" || path == "math/rand/v2" {
						p.Reportf(imp.Pos(), "import of %s outside internal/rng: its sequences are not stable across Go releases; use caliqec/internal/rng", path)
					}
				}
			}
		},
	}
}

// TimeNow forbids reading the wall clock (time.Now / time.Since /
// time.Until) in library packages. Contract: simulated time is explicit
// (hours parameters, injected clocks), so results never depend on when a
// run happens. Main packages may time their own wall-clock output; named
// timing files can be passed to the constructor, and one-off waivers use
// //lint:allow timenow.
func TimeNow(allowFiles ...string) *Rule {
	allowed := map[string]bool{}
	for _, f := range allowFiles {
		allowed[f] = true
	}
	return &Rule{
		Name: "timenow",
		Doc:  "no wall-clock reads (time.Now/Since/Until) outside main packages and allowed timing files",
		Run: func(p *Pass) {
			if p.Pkg.Name == "main" {
				return
			}
			for _, f := range p.Pkg.Files {
				if allowed[filepath.Base(fileOf(p, f))] {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					s, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch s.Sel.Name {
					case "Now", "Since", "Until":
						if pkgRef(p, s.X) == "time" {
							p.Reportf(s.Pos(), "wall-clock read time.%s in a library package: inject a clock or take simulated time as a parameter", s.Sel.Name)
						}
					}
					return true
				})
			}
		},
	}
}

// FloatEq forbids == and != between floating-point operands. Contract:
// LER/probability arithmetic compares with tolerances; exact float
// equality silently diverges across compilers, FMA contraction, and
// refactors. Exact sentinel checks (zero-value means "unset") must carry a
// //lint:allow floateq waiver documenting the sentinel.
func FloatEq() *Rule {
	isFloat := func(t types.Type) bool {
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	return &Rule{
		Name: "floateq",
		Doc:  "no ==/!= between float operands; compare with a tolerance",
		Run: func(p *Pass) {
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					tx := p.Pkg.Info.Types[be.X].Type
					ty := p.Pkg.Info.Types[be.Y].Type
					if isFloat(tx) || isFloat(ty) {
						p.Reportf(be.OpPos, "float %s comparison: use a tolerance (math.Abs(a-b) <= eps) or document the exact sentinel with //lint:allow floateq", be.Op)
					}
					return true
				})
			}
		},
	}
}

// CtxFirst enforces Go's context conventions, which the mc engine's
// cancellation contract depends on: a context.Context parameter comes
// first, and contexts are never stored in struct fields (a stored context
// outlives the call that created it and silently detaches cancellation).
func CtxFirst() *Rule {
	return &Rule{
		Name: "ctxfirst",
		Doc:  "context.Context must be the first parameter and must not be stored in structs",
		Run: func(p *Pass) {
			for _, f := range p.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncType:
						if has, first := funcTakesContext(p, n); has && !first {
							p.Reportf(n.Pos(), "context.Context must be the first parameter")
						}
					case *ast.StructType:
						if n.Fields == nil {
							return true
						}
						for _, fld := range n.Fields.List {
							if isContextType(p, fld.Type) {
								p.Reportf(fld.Pos(), "context.Context stored in a struct: pass it per call so cancellation stays attached to the caller")
							}
						}
					}
					return true
				})
			}
		},
	}
}

// PanicPolicy forbids panic in library packages. Contract: simulation and
// scheduling errors must surface as errors the runtime can react to
// (defer, re-plan), not crash a long sweep. The one sanctioned exception
// is internal/circuit's builder, documented as panic-on-misuse for
// code-generation bugs; container-style index panics elsewhere carry
// //lint:allow panicpolicy waivers mirroring built-in slice semantics.
func PanicPolicy() *Rule {
	allowedFile := map[string]bool{"builder.go": true}
	return &Rule{
		Name: "panicpolicy",
		Doc:  "no panic in library packages (internal/circuit's builder is the documented panic-on-misuse exception)",
		Run: func(p *Pass) {
			if p.Pkg.Name == "main" {
				return
			}
			isCircuit := strings.HasSuffix(p.Pkg.Path, "internal/circuit")
			for _, f := range p.Pkg.Files {
				if isCircuit && allowedFile[filepath.Base(fileOf(p, f))] {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					id, ok := call.Fun.(*ast.Ident)
					if !ok || id.Name != "panic" {
						return true
					}
					if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
						return true // shadowed: not the builtin
					}
					p.Reportf(call.Pos(), "panic in a library package: return an error (or document misuse semantics with //lint:allow panicpolicy)")
					return true
				})
			}
		},
	}
}

// BareLoop forbids exported API from launching goroutines when no
// context.Context is in scope. Contract: every long-running path is
// cancellable; a goroutine started from an exported function that takes no
// context has no way to stop when the caller goes away.
func BareLoop() *Rule {
	return &Rule{
		Name: "bareloop",
		Doc:  "exported functions that launch goroutines must take a context.Context",
		Run: func(p *Pass) {
			if p.Pkg.Name == "main" {
				return
			}
			for _, f := range p.Pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !exportedAPI(fd) {
						continue
					}
					if has, _ := funcTakesContext(p, fd.Type); has {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if g, ok := n.(*ast.GoStmt); ok {
							p.Reportf(g.Pos(), "exported %s launches a goroutine without a context.Context parameter: callers cannot cancel it", fd.Name.Name)
						}
						return true
					})
				}
			}
		},
	}
}

// exportedAPI reports whether fd is part of the package's exported
// surface: an exported function, or an exported method on an exported
// receiver type.
func exportedAPI(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
