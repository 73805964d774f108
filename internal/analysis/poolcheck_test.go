package analysis

import "testing"

// Poolcheck fixtures declare their own getBuf/putBuf: the analyzer matches
// pool functions by name plus package-path suffix, and LoadSource places
// "internal/rpc/fixture.go" in package path "internal/rpc", so the
// fixtures obey the same rules as the real buffer pool.
const poolFixturePrelude = `package rpc
func getBuf(n int) []byte { return make([]byte, 0, n) }
func putBuf(b []byte)     {}
func use(b []byte) int    { return len(b) }
`

func TestPoolCheck(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []int
	}{
		{
			name: "buffer never released leaks",
			src: poolFixturePrelude + `func f() int {
	b := getBuf(64) // line 6: flagged
	return use(b[:0])
}
`,
			want: []int{6},
		},
		{
			name: "early return skips the put",
			src: poolFixturePrelude + `func f(stop bool) int {
	b := getBuf(64) // line 6: flagged — the stop path drops b
	if stop {
		return 0
	}
	n := use(b)
	putBuf(b)
	return n
}
`,
			want: []int{6},
		},
		{
			name: "put on every branch is fine",
			src: poolFixturePrelude + `func f(stop bool) int {
	b := getBuf(64)
	if stop {
		putBuf(b)
		return 0
	}
	n := use(b)
	putBuf(b)
	return n
}
`,
			want: nil,
		},
		{
			name: "deferred put is fine",
			src: poolFixturePrelude + `func f(stop bool) int {
	b := getBuf(64)
	defer putBuf(b)
	if stop {
		return 0
	}
	return use(b)
}
`,
			want: nil,
		},
		{
			name: "use after put",
			src: poolFixturePrelude + `func f() int {
	b := getBuf(64)
	putBuf(b)
	return use(b) // line 8: flagged — b is back in the pool
}
`,
			want: []int{8},
		},
		{
			name: "double put",
			src: poolFixturePrelude + `func f(stop bool) {
	b := getBuf(64)
	if stop {
		putBuf(b)
	}
	putBuf(b) // line 10: flagged — already put on the stop path
}
`,
			want: []int{10},
		},
		{
			name: "returning the buffer transfers ownership",
			src: poolFixturePrelude + `func f() []byte {
	b := getBuf(64)
	b = append(b, 1)
	return b
}
`,
			want: nil,
		},
		{
			name: "channel send transfers ownership",
			src: poolFixturePrelude + `func f(ch chan []byte) {
	b := getBuf(64)
	ch <- b
}
`,
			want: nil,
		},
		{
			name: "handoff to a putting helper resolved via summary",
			src: poolFixturePrelude + `func sink(b []byte) { putBuf(b) }
func f() {
	b := getBuf(64)
	sink(b)
}
`,
			want: nil,
		},
		{
			name: "panic path is exempt",
			src: poolFixturePrelude + `func f(stop bool) {
	b := getBuf(64)
	if stop {
		panic("stop")
	}
	putBuf(b)
}
`,
			want: nil,
		},
		{
			name: "self-append keeps ownership until the put",
			src: poolFixturePrelude + `func f() {
	b := getBuf(64)
	b = append(b, 1, 2, 3)
	putBuf(b)
}
`,
			want: nil,
		},
		{
			name: "re-get leaks the first buffer",
			src: poolFixturePrelude + `func f() {
	b := getBuf(64) // line 6: flagged — overwritten before any release
	b = getBuf(128)
	putBuf(b)
}
`,
			want: []int{6},
		},
		{
			name: "closure-captured buffers are the closure's business",
			src: poolFixturePrelude + `func f(run func(func())) {
	b := getBuf(64)
	run(func() { putBuf(b) })
}
`,
			want: nil,
		},
		{
			name: "get inside a function literal is tracked there",
			src: poolFixturePrelude + `func f(run func(func())) {
	run(func() {
		b := getBuf(64) // line 7: flagged — leaks within the literal
		use(b)
	})
}
`,
			want: []int{7},
		},
		{
			name: "alias assignment moves ownership",
			src: poolFixturePrelude + `var kept []byte
func f() {
	b := getBuf(64)
	kept = b
}
`,
			want: nil,
		},
		{
			name: "helper get leaks at the call site via summary",
			src: poolFixturePrelude + `func getBufN(n int) []byte { return getBuf(n)[:n] }
func f() int {
	b := getBufN(64) // line 7: flagged — the helper got it on f's behalf
	return use(b)
}
`,
			want: []int{7},
		},
		{
			name: "helper get with a put is clean",
			src: poolFixturePrelude + `func getBufN(n int) []byte { return getBuf(n)[:n] }
func f() int {
	b := getBufN(64)
	n := use(b)
	putBuf(b)
	return n
}
`,
			want: nil,
		},
		{
			name: "chained helper gets resolve through the fixpoint",
			src: poolFixturePrelude + `func g1(n int) []byte { return getBuf(n) }
func g2(n int) []byte { return g1(n)[:0] }
func f(stop bool) {
	b := g2(64) // line 8: flagged — the stop path drops b
	if stop {
		return
	}
	putBuf(b)
}
`,
			want: []int{8},
		},
		{
			name: "helper re-get leaks the first buffer",
			src: poolFixturePrelude + `func getBufN(n int) []byte { return getBuf(n)[:n] }
func f() {
	b := getBuf(64) // line 7: flagged — replaced by the helper's buffer
	b = getBufN(128)
	putBuf(b)
}
`,
			want: []int{7},
		},
		{
			name: "conditionally pooled helper is not tracked",
			src: poolFixturePrelude + `func maybe(n int) []byte {
	if n > 1024 {
		return make([]byte, n)
	}
	return getBuf(n)
}
func f() int {
	b := maybe(64)
	return use(b)
}
`,
			want: nil,
		},
		{
			name: "multi-result helper is not tracked",
			src: poolFixturePrelude + `func framed(ok bool) ([]byte, error) {
	if !ok {
		return nil, nil
	}
	return getBuf(64), nil
}
func f() int {
	b, _ := framed(true)
	return use(b)
}
`,
			want: nil,
		},
		{
			name: "buffer-error get released after the error check is fine",
			src: poolFixturePrelude + `func encodeFrame(n int) ([]byte, error) { return getBuf(n), nil }
func f() int {
	b, err := encodeFrame(64)
	if err != nil {
		return 0
	}
	n := use(b)
	putBuf(b)
	return n
}
`,
			want: nil,
		},
		{
			name: "buffer-error get leaks on the error-nil path",
			src: poolFixturePrelude + `func encodeFrame(n int) ([]byte, error) { return getBuf(n), nil }
func f() int {
	b, err := encodeFrame(64) // line 7: flagged
	if err != nil {
		return 0
	}
	return use(b)
}
`,
			want: []int{7},
		},
		{
			name: "buffer-error get put on the err == nil branch is fine",
			src: poolFixturePrelude + `func encodeFrame(n int) ([]byte, error) { return getBuf(n), nil }
func f() {
	b, err := encodeFrame(64)
	if err == nil {
		putBuf(b)
	}
}
`,
			want: nil,
		},
		{
			name: "buffer-error get double put after the check",
			src: poolFixturePrelude + `func encodeFrame(n int) ([]byte, error) { return getBuf(n), nil }
func f() {
	b, err := encodeFrame(64)
	if err != nil {
		return
	}
	putBuf(b)
	putBuf(b) // line 12: flagged
}
`,
			want: []int{12},
		},
		{
			name: "buffer-error get whose error is reused before the check",
			src: poolFixturePrelude + `func encodeFrame(n int) ([]byte, error) { return getBuf(n), nil }
func g() error { return nil }
func f() {
	b, err := encodeFrame(64) // line 8: flagged — err no longer speaks for b
	err = g()
	if err != nil {
		return
	}
	putBuf(b)
}
`,
			want: []int{8},
		},
		{
			name: "ignore directive suppresses",
			src: poolFixturePrelude + `func f() int {
	b := getBuf(64) //modelcheck:ignore poolcheck — released by the caller via Close
	return use(b)
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sameLines(t, runOnSource(t, PoolCheck, "internal/rpc/fixture.go", tc.src), tc.want...)
		})
	}
}
