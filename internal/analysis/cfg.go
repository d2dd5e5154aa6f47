package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// This file builds intraprocedural control-flow graphs over function bodies.
// A CFG is the substrate for the flow-sensitive rules (lockbalance, obsspan,
// chanclose, ...): where the original AST-walk rules could only ask "does an
// Unlock appear somewhere below this Lock", a CFG rule asks "does every path
// from the Lock to the function exit pass an Unlock" — which is the actual
// contract.
//
// The graph is deliberately simple:
//
//   - Blocks hold a straight-line sequence of atomic nodes (plain statements
//     and the condition/tag expressions of the control statements that end
//     the block). Nodes never contain sub-statements of the same function —
//     a function literal inside a node is an opaque value here and gets its
//     own CFG when analyzed.
//   - Every function has one synthetic Exit block. Returns, falling off the
//     end, explicit panic(...) calls and process terminators (os.Exit,
//     log.Fatal*, runtime.Goexit) all edge to Exit, so "on every path out of
//     the function" is exactly "in every dataflow state reaching Exit".
//     Deferred calls run on both return and panic paths, which is why the
//     rules treat a registered defer as covering all downstream exits.
//   - goto/labeled break/labeled continue resolve to real edges, so loops
//     written with goto are loops here too (InLoop is cycle membership, not
//     syntax).
//
// Dead code after a terminator lands in an "unreachable" block with no
// predecessors; dataflow never reaches it and rules stay silent there.

// CFG is the control-flow graph of one function body.
type CFG struct {
	Fn     ast.Node // *ast.FuncDecl or *ast.FuncLit
	Blocks []*Block // Blocks[0] is Entry; Exit is always last
	Entry  *Block
	Exit   *Block

	scc []int // lazily computed cycle-membership (block index -> scc id, -1 = not on a cycle)
}

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	Index int
	Kind  string     // entry, exit, if.then, for.body, select.case, ... (for dumps and tests)
	Nodes []ast.Node // statements and control expressions in execution order
	Succs []*Block
}

// BuildCFG constructs the CFG for a *ast.FuncDecl or *ast.FuncLit. It
// returns nil for bodyless declarations. Construction is purely syntactic:
// no type information is needed, so tests can build graphs from parsed
// snippets directly.
func BuildCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	default:
		return nil
	}
	if body == nil {
		return nil
	}
	g := &CFG{Fn: fn}
	b := &cfgBuilder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{Kind: "exit"} // appended (and numbered) last, in finish
	b.cur = g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

type labelInfo struct {
	block *Block // the block the labeled statement starts in (goto target)
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	label      string // the statement's label, "" if unlabeled
	breakTo    *Block
	continueTo *Block // nil for switch/select (continue passes through to the loop)
}

type cfgBuilder struct {
	g        *CFG
	cur      *Block // nil when the current point is unreachable
	labels   map[string]*labelInfo
	targets  []branchTarget
	curLabel string // label attached to the statement about to be built
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// block returns the current block, starting an unreachable one for dead code.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// startIn closes the current block with an edge into next and continues there.
func (b *cfgBuilder) startIn(next *Block) {
	if b.cur != nil {
		b.edge(b.cur, next)
	}
	b.cur = next
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a loop/switch/select statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

// labelBlock returns (creating on demand) the goto-target block for name.
func (b *cfgBuilder) labelBlock(name string) *Block {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li.block
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.startIn(lb)
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.BlockStmt:
		b.curLabel = ""
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.block(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminatorCall(s.X) {
			b.edge(b.block(), b.g.Exit)
			b.cur = nil
		}

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())

	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, true, b.takeLabel())

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, false, b.takeLabel())

	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, Defer, Go, Send, IncDec: atomic, straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.GOTO:
		b.edge(b.block(), b.labelBlock(s.Label.Name))
		b.cur = nil
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if s.Label == nil || t.label == s.Label.Name {
				b.edge(b.block(), t.breakTo)
				break
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueTo == nil {
				continue // switch/select: continue refers to the enclosing loop
			}
			if s.Label == nil || t.label == s.Label.Name {
				b.edge(b.block(), t.continueTo)
				break
			}
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by switchStmt, which links the case to its successor.
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.block()

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	afterThen := b.cur

	var afterElse *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			b.stmtList(e.List)
		default:
			b.stmt(e) // else-if chain
		}
		afterElse = b.cur
	}

	if afterThen == nil && hasElse && afterElse == nil {
		b.cur = nil // both arms terminated: no join point
		return
	}
	done := b.newBlock("if.done")
	if afterThen != nil {
		b.edge(afterThen, done)
	}
	if hasElse {
		if afterElse != nil {
			b.edge(afterElse, done)
		}
	} else {
		b.edge(cond, done) // condition false falls through
	}
	b.cur = done
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.startIn(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	done := b.newBlock("for.done")
	if s.Cond != nil {
		b.edge(head, done)
	}
	body := b.newBlock("for.body")
	b.edge(head, body)

	continueTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		continueTo = post
	}
	b.targets = append(b.targets, branchTarget{label: label, breakTo: done, continueTo: continueTo})
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	if post != nil {
		b.startIn(post)
		b.stmt(s.Post)
		b.startIn(head)
	} else if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X) // the ranged expression is evaluated once, before the loop
	head := b.newBlock("range.head")
	b.startIn(head)
	done := b.newBlock("range.done")
	b.edge(head, done)
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.cur = body
	// Per-iteration key/value bindings happen at the top of the body.
	if s.Key != nil {
		b.add(s.Key)
	}
	if s.Value != nil {
		b.add(s.Value)
	}
	b.targets = append(b.targets, branchTarget{label: label, breakTo: done, continueTo: head})
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = done
}

// switchStmt builds expression switches (allowFall=true) and type switches.
// tag is the Tag expression or the type-switch Assign statement.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, allowFall bool, label string) {
	if init != nil {
		b.stmt(init)
	}
	b.add(tag)
	head := b.block()
	done := b.newBlock("switch.done")

	// One block per case, created up front so fallthrough can link forward.
	var caseBlocks []*Block
	hasDefault := false
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		cb := b.newBlock(kind)
		b.edge(head, cb)
		caseBlocks = append(caseBlocks, cb)
	}
	if !hasDefault {
		b.edge(head, done)
	}

	b.targets = append(b.targets, branchTarget{label: label, breakTo: done})
	for i, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		falls := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = allowFall && i+1 < len(caseBlocks)
				continue
			}
			b.stmt(st)
		}
		if b.cur != nil {
			if falls {
				b.edge(b.cur, caseBlocks[i+1])
			} else {
				b.edge(b.cur, done)
			}
			b.cur = nil
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.block()
	if len(s.Body.List) == 0 {
		// select{} blocks forever: everything after is unreachable.
		b.cur = nil
		return
	}
	done := b.newBlock("select.done")
	b.targets = append(b.targets, branchTarget{label: label, breakTo: done})
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		cb := b.newBlock(kind)
		b.edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	// A select (with or without default) always runs exactly one arm, so
	// the only way past it is through a case: no head->done shortcut.
	b.cur = done
}

// isTerminatorCall reports whether e is a call that never returns control to
// this function: the panic builtin, os.Exit, runtime.Goexit, or log.Fatal*.
// Purely name-based (the builder has no type information); a shadowed panic
// would be misclassified, which only makes the analysis conservative.
func isTerminatorCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// InLoop reports whether b lies on a cycle of the graph — syntactic loops
// (for/range), but equally loops written with goto or labeled continue.
func (g *CFG) InLoop(b *Block) bool {
	g.ensureSCC()
	return g.scc[b.Index] >= 0
}

// LoopSpan returns the source extent covered by the cycle containing b
// (min Pos / max End over the nodes of every block in b's strongly
// connected component). ok is false when b is not on a cycle or the cycle
// has no positioned nodes.
func (g *CFG) LoopSpan(b *Block) (lo, hi token.Pos, ok bool) {
	g.ensureSCC()
	id := g.scc[b.Index]
	if id < 0 {
		return 0, 0, false
	}
	for _, blk := range g.Blocks {
		if g.scc[blk.Index] != id {
			continue
		}
		for _, n := range blk.Nodes {
			if !ok || n.Pos() < lo {
				lo = n.Pos()
			}
			if !ok || n.End() > hi {
				hi = n.End()
			}
			ok = true
		}
	}
	return lo, hi, ok
}

// ensureSCC computes cycle membership with Tarjan's algorithm: a block is on
// a cycle iff its strongly connected component has more than one member, or
// it has a self-edge.
func (g *CFG) ensureSCC() {
	if g.scc != nil {
		return
	}
	n := len(g.Blocks)
	g.scc = make([]int, n)
	for i := range g.scc {
		g.scc[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next, sccID := 0, 0
	var strong func(v int)
	strong = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, s := range g.Blocks[v].Succs {
			w := s.Index
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			cyclic := len(comp) > 1
			if !cyclic {
				for _, s := range g.Blocks[v].Succs {
					if s.Index == v {
						cyclic = true // self-edge
					}
				}
			}
			if cyclic {
				for _, w := range comp {
					g.scc[w] = sccID
				}
				sccID++
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
}

// Dump renders the graph one block per line — "bN kind: [nodes] -> succs" —
// for the golden CFG tests and for debugging rules.
func (g *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.Index, b.Kind)
		if len(b.Nodes) > 0 {
			parts := make([]string, len(b.Nodes))
			for i, n := range b.Nodes {
				parts[i] = nodeString(fset, n)
			}
			fmt.Fprintf(&sb, " [%s]", strings.Join(parts, "; "))
		}
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nodeString renders a node compactly on one line, truncated for readability.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 44 {
		s = s[:41] + "..."
	}
	return s
}
