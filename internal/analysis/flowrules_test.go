package analysis_test

import (
	"testing"

	"caliqec/internal/analysis"
)

// The concurrency rule pack runs on the CFG + dataflow layer: every test
// here includes at least one flow-sensitive shape (early return, branch
// merge, loop back-edge, goto cycle) that the flat AST walks of PR 2-6
// could not express.

func TestLockBalance(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"fires on an early return holding the lock",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, b bool) int {
	mu.Lock()
	if b {
		return 1
	}
	mu.Unlock()
	return 0
}
`},
			map[string]int{"lockbalance": 1},
		},
		{
			"silent with defer Unlock",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, b bool) int {
	mu.Lock()
	defer mu.Unlock()
	if b {
		return 1
	}
	return 0
}
`},
			nil,
		},
		{
			"silent with explicit Unlock on every branch",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, b bool) int {
	mu.Lock()
	if b {
		mu.Unlock()
		return 1
	}
	mu.Unlock()
	return 0
}
`},
			nil,
		},
		{
			"fires when an explicit panic escapes the lock",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, b bool) {
	mu.Lock()
	if b {
		panic("boom")
	}
	mu.Unlock()
}
`},
			map[string]int{"lockbalance": 1},
		},
		{
			"silent when a deferred closure unlocks",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, b bool) {
	mu.Lock()
	defer func() {
		mu.Unlock()
	}()
	if b {
		panic("boom")
	}
}
`},
			nil,
		},
		{
			"tracks RLock/RUnlock separately from Lock/Unlock",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.RWMutex, b bool) int {
	mu.RLock()
	if b {
		mu.Unlock()
		return 1
	}
	mu.RUnlock()
	return 0
}
`},
			map[string]int{"lockbalance": 1},
		},
		{
			"fires on an embedded mutex through a struct field",
			map[string]string{"a/a.go": `package a

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Bump(b bool) {
	s.mu.Lock()
	if b {
		return
	}
	s.n++
	s.mu.Unlock()
}
`},
			map[string]int{"lockbalance": 1},
		},
		{
			"silent on lock/unlock per iteration in a loop",
			map[string]string{"a/a.go": `package a

import "sync"

func X(mu *sync.Mutex, xs []int) {
	for range xs {
		mu.Lock()
		mu.Unlock()
	}
}
`},
			nil,
		},
		{
			"waiver on the Lock line suppresses a handoff",
			map[string]string{"a/a.go": `package a

import "sync"

func Acquire(mu *sync.Mutex) {
	mu.Lock() //lint:allow lockbalance caller releases via Release
}

func Release(mu *sync.Mutex) {
	mu.Unlock()
}
`},
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.LockBalance()), tc.want)
		})
	}
}

func TestGoroutineLeak(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"fires on a detached goroutine in a for loop",
			map[string]string{"a/a.go": `package a

func x(work func()) {
	for {
		go func() {
			work()
		}()
	}
}
`},
			map[string]int{"goroutineleak": 1},
		},
		{
			"fires on a goto-formed accept loop",
			map[string]string{"a/a.go": `package a

func x(accept func() func()) {
loop:
	h := accept()
	go func() {
		h()
	}()
	goto loop
}
`},
			map[string]int{"goroutineleak": 1},
		},
		{
			"silent when the closure watches a context",
			map[string]string{"a/a.go": `package a

import "context"

func x(ctx context.Context, work func()) {
	for {
		go func() {
			select {
			case <-ctx.Done():
			default:
				work()
			}
		}()
	}
}
`},
			nil,
		},
		{
			"silent when tied to a WaitGroup",
			map[string]string{"a/a.go": `package a

import "sync"

func x(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(w func()) {
			defer wg.Done()
			w()
		}(w)
	}
	wg.Wait()
}
`},
			nil,
		},
		{
			"silent when a quit channel is visible in the closure",
			map[string]string{"a/a.go": `package a

type s struct{ quit chan struct{} }

func (sv *s) serve(work func()) {
	for {
		go func() {
			select {
			case <-sv.quit:
			default:
				work()
			}
		}()
	}
}
`},
			nil,
		},
		{
			"fires when the only channel is goroutine-local",
			map[string]string{"a/a.go": `package a

func x(work func()) {
	for {
		go func() {
			private := make(chan struct{})
			_ = private
			work()
		}()
	}
}
`},
			map[string]int{"goroutineleak": 1},
		},
		{
			"silent outside loops",
			map[string]string{"a/a.go": `package a

func x(work func()) {
	go func() {
		work()
	}()
}
`},
			nil,
		},
		{
			// The fleet worker-pool shutdown pattern: a constructor spawns N
			// workers in a loop, each tied to the pool's WaitGroup through a
			// free-variable defer; Close joins them. The wg tie is the
			// shutdown story the rule wants to see.
			"silent on the shared-pool worker spawn (wg-tied, Close joins)",
			map[string]string{"a/a.go": `package a

import "sync"

type pool struct {
	wg     sync.WaitGroup
	closed bool
}

func (p *pool) worker() {}

func newPool(n int) *pool {
	p := &pool{}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

func (p *pool) close() {
	p.closed = true
	p.wg.Wait()
}
`},
			nil,
		},
		{
			// The same spawn loop with the WaitGroup tie dropped: nothing
			// joins the workers, so pool shutdown leaks n goroutines.
			"fires on the pool worker spawn without a join",
			map[string]string{"a/a.go": `package a

type pool struct{ closed bool }

func (p *pool) worker() {}

func newPool(n int) *pool {
	p := &pool{}
	for i := 0; i < n; i++ {
		go func() {
			p.worker()
		}()
	}
	return p
}
`},
			map[string]int{"goroutineleak": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.GoroutineLeak()), tc.want)
		})
	}
}

func TestWgDiscipline(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"fires on Add inside the spawned goroutine",
			map[string]string{"a/a.go": `package a

import "sync"

func x(work func()) {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1)
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
`},
			map[string]int{"wgdiscipline": 1},
		},
		{
			"fires when an early return skips Done",
			map[string]string{"a/a.go": `package a

import "sync"

func x(wg *sync.WaitGroup, b bool, work func()) {
	wg.Add(1)
	go func() {
		if b {
			return
		}
		work()
		wg.Done()
	}()
}
`},
			map[string]int{"wgdiscipline": 1},
		},
		{
			"silent with defer Done",
			map[string]string{"a/a.go": `package a

import "sync"

func x(wg *sync.WaitGroup, b bool, work func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if b {
			return
		}
		work()
	}()
}
`},
			nil,
		},
		{
			"fires on Add after Wait",
			map[string]string{"a/a.go": `package a

import "sync"

func x(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}
`},
			map[string]int{"wgdiscipline": 1},
		},
		{
			"fires on Add reached after Wait around a loop back-edge",
			map[string]string{"a/a.go": `package a

import "sync"

func x(n int, work func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
		wg.Wait()
	}
}
`},
			map[string]int{"wgdiscipline": 1},
		},
		{
			"silent on the canonical spawn pattern",
			map[string]string{"a/a.go": `package a

import "sync"

func x(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func(w func()) {
			defer wg.Done()
			w()
		}(w)
	}
	wg.Wait()
}
`},
			nil,
		},
		{
			// The fleet pool's constructor/Close split: Add(1) before each
			// spawn in the constructor, Wait in a different method. The
			// discipline holds per flow path even though Add and Wait never
			// share a function body.
			"silent on the pool constructor Add / Close Wait split",
			map[string]string{"a/a.go": `package a

import "sync"

type pool struct{ wg sync.WaitGroup }

func (p *pool) worker() {}

func newPool(n int) *pool {
	p := &pool{}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

func (p *pool) close() { p.wg.Wait() }
`},
			nil,
		},
		{
			// The broken variant: the worker registers itself, so Close can
			// Wait before any Add lands — the classic racy pool shutdown.
			"fires when pool workers Add themselves",
			map[string]string{"a/a.go": `package a

import "sync"

type pool struct{ wg sync.WaitGroup }

func (p *pool) worker() {}

func newPool(n int) *pool {
	p := &pool{}
	for i := 0; i < n; i++ {
		go func() {
			p.wg.Add(1)
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

func (p *pool) close() { p.wg.Wait() }
`},
			map[string]int{"wgdiscipline": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.WgDiscipline()), tc.want)
		})
	}
}

func TestDeferLoop(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"fires on defer Close in a range body",
			map[string]string{"a/a.go": `package a

import "os"

func x(names []string) error {
	for _, n := range names {
		f, err := os.Open(n)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	return nil
}
`},
			map[string]int{"deferloop": 1},
		},
		{
			"fires on defer Unlock in a goto loop",
			map[string]string{"a/a.go": `package a

import "sync"

func x(mu *sync.Mutex, n int) {
top:
	mu.Lock()
	defer mu.Unlock()
	n--
	if n > 0 {
		goto top
	}
}
`},
			map[string]int{"deferloop": 1},
		},
		{
			"fires on a deferred cancel func in a loop",
			map[string]string{"a/a.go": `package a

import "context"

func x(parent context.Context, n int) {
	for i := 0; i < n; i++ {
		_, cancel := context.WithCancel(parent)
		defer cancel()
	}
}
`},
			map[string]int{"deferloop": 1},
		},
		{
			"silent when the defer lives in a per-iteration closure",
			map[string]string{"a/a.go": `package a

import "os"

func x(names []string) error {
	for _, n := range names {
		if err := func() error {
			f, err := os.Open(n)
			if err != nil {
				return err
			}
			defer f.Close()
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}
`},
			nil,
		},
		{
			"silent on defer outside loops",
			map[string]string{"a/a.go": `package a

import "os"

func x(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}
`},
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.DeferLoop()), tc.want)
		})
	}
}

// TestObsSpanFlow pins the flow-sensitive shapes the pre-CFG obsspan walk
// could not decide: per-arm select/switch coverage and goto-formed paths.
func TestObsSpanFlow(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"silent when every select arm ends the span",
			map[string]string{"obs/obs.go": obsFixture, "a/a.go": `package a

import (
	"context"

	"fixture/obs"
)

func X(ctx context.Context, a, b chan int) {
	_, sp := obs.StartSpan(ctx, "x")
	select {
	case <-a:
		sp.End()
	case <-b:
		sp.End()
	default:
		sp.End()
	}
}
`},
			nil,
		},
		{
			"fires when one select arm skips End",
			map[string]string{"obs/obs.go": obsFixture, "a/a.go": `package a

import (
	"context"

	"fixture/obs"
)

func X(ctx context.Context, a chan int) {
	_, sp := obs.StartSpan(ctx, "x")
	select {
	case <-a:
		sp.End()
	default:
	}
}
`},
			map[string]int{"obsspan": 1},
		},
		{
			"fires when a switch case returns without End",
			map[string]string{"obs/obs.go": obsFixture, "a/a.go": `package a

import (
	"context"

	"fixture/obs"
)

func X(ctx context.Context, n int) {
	_, sp := obs.StartSpan(ctx, "x")
	switch n {
	case 0:
		return
	default:
		sp.End()
	}
}
`},
			map[string]int{"obsspan": 1},
		},
		{
			"silent when a goto retry loop ends the span on both exits",
			map[string]string{"obs/obs.go": obsFixture, "a/a.go": `package a

import (
	"context"

	"fixture/obs"
)

func X(ctx context.Context, tries int) {
	_, sp := obs.StartSpan(ctx, "x")
retry:
	if tries > 0 {
		tries--
		goto retry
	}
	sp.End()
}
`},
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.ObsSpan()), tc.want)
		})
	}
}

// TestChanCloseFlow pins the path-sensitive close shapes the pre-CFG
// per-block walk missed: close and use meeting across a branch join,
// path-dependent double closes, and rebinding clearing the closed state.
func TestChanCloseFlow(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  map[string]int
	}{
		{
			"fires on send after a branchy close joins the main path",
			map[string]string{"a/a.go": `package a

func X(done bool) {
	ch := make(chan int, 1)
	if done {
		close(ch)
	}
	ch <- 1
}
`},
			map[string]int{"chanclose": 1},
		},
		{
			"fires once when both branches close before the send",
			map[string]string{"a/a.go": `package a

func X(b bool) {
	ch := make(chan int, 1)
	if b {
		close(ch)
	} else {
		close(ch)
	}
	ch <- 1
}
`},
			map[string]int{"chanclose": 1},
		},
		{
			"fires on a path-dependent double close",
			map[string]string{"a/a.go": `package a

func X(b bool) {
	ch := make(chan int)
	if b {
		close(ch)
	}
	close(ch)
}
`},
			map[string]int{"chanclose": 1},
		},
		{
			"silent when rebinding makes a fresh channel after close",
			map[string]string{"a/a.go": `package a

func X() {
	ch := make(chan int, 1)
	close(ch)
	ch = make(chan int, 1)
	ch <- 1
}
`},
			nil,
		},
		{
			"silent when the closed branch returns before the send",
			map[string]string{"a/a.go": `package a

func X(done bool) {
	ch := make(chan int, 1)
	if done {
		close(ch)
		return
	}
	ch <- 1
}
`},
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCounts(t, lint(t, tc.files, analysis.ChanClose()), tc.want)
		})
	}
}
