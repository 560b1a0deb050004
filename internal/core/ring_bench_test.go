package core

import "testing"

// BenchmarkRingPop measures the one-at-a-time consume path.
func BenchmarkRingPop(b *testing.B) {
	r := NewRing(1024)
	t := &Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(t)
		if r.Pop() == nil {
			b.Fatal("lost task")
		}
	}
}

// BenchmarkRingPopN measures the batched drain: one op is one round of
// 16 pushes and one PopN.
func BenchmarkRingPopN(b *testing.B) {
	r := NewRing(1024)
	t := &Task{}
	var buf [16]*Task
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			r.Push(t)
		}
		if got := r.PopN(buf[:]); got != 16 {
			b.Fatalf("PopN = %d", got)
		}
	}
}
