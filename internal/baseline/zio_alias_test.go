package baseline

import (
	"bytes"
	"testing"

	"copier/internal/kernel"
	"copier/internal/mem"
)

// Alias mode: large copies with incongruent offsets defer entirely;
// the interposed send gathers from the source.
func TestZIOAliasAndGatherSend(t *testing.T) {
	m := newM(3)
	p := m.NewProcess("app")
	peer := m.NewProcess("peer")
	z := NewZIO(m, 4<<10)
	sa, sb := m.Net().SocketPair("a", "b")
	const n = 16 << 10
	src := mkbuf(t, p, n+512, 0x6C)
	dst := mkbuf(t, p, n+512, 0)
	rbuf := mkbuf(t, peer, n+64, 0)
	tx := m.Spawn(p, "tx", func(th *kernel.Thread) {
		// Offsets differ mod page: alias, no page sharing.
		if err := z.Memcpy(th, dst+5, src+100, n); err != nil {
			t.Error(err)
		}
		if z.Aliases() != 1 || z.PagesShared != 0 {
			t.Errorf("aliases=%d shared=%d", z.Aliases(), z.PagesShared)
		}
		// The destination was never written...
		probe := make([]byte, 16)
		if err := p.AS.ReadAt(dst+5, probe); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(probe, make([]byte, 16)) {
			t.Error("alias mode copied eagerly")
		}
		// ...but the interposed send transmits the logical contents.
		if err := z.Send(th, sa, dst, n+10); err != nil {
			t.Error(err)
		}
	})
	rx := m.Spawn(peer, "rx", func(th *kernel.Thread) {
		got, err := sb.Recv(th, rbuf, n+64, false)
		if err != nil || got != n+10 {
			t.Errorf("recv %d %v", got, err)
		}
	})
	if err := m.RunApps(tx, rx); err != nil {
		t.Fatal(err)
	}
	// Bytes 5..n+5 of the message must be the source data.
	got := make([]byte, 16)
	if err := peer.AS.ReadAt(rbuf+5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x6C}, 16)) {
		t.Fatalf("gathered send lost alias data: % x", got)
	}
}

// Overwriting the source of an alias materializes it first.
func TestZIOInvalidateSourceMaterializes(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 8 << 10
	src := mkbuf(t, p, n+512, 0x2F)
	dst := mkbuf(t, p, n+512, 0)
	th := m.Spawn(p, "t", func(th *kernel.Thread) {
		if err := z.Memcpy(th, dst+7, src+100, n); err != nil {
			t.Error(err)
		}
		if err := z.InvalidateSource(th, src, n+64); err != nil {
			t.Error(err)
		}
		if z.Materialized != 1 || z.Aliases() != 0 {
			t.Errorf("materialized=%d aliases=%d", z.Materialized, z.Aliases())
		}
		got := make([]byte, n)
		if err := p.AS.ReadAt(dst+7, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x2F}, n)) {
			t.Error("materialization lost data")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
}

// A new copy onto an aliased destination supersedes the old alias
// without materializing it.
func TestZIOAliasSuperseded(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 8 << 10
	s1 := mkbuf(t, p, n+512, 0x11)
	s2 := mkbuf(t, p, n+512, 0x22)
	dst := mkbuf(t, p, n+512, 0)
	th := m.Spawn(p, "t", func(th *kernel.Thread) {
		if err := z.Memcpy(th, dst+3, s1+100, n); err != nil {
			t.Error(err)
		}
		if err := z.Memcpy(th, dst+3, s2+100, n); err != nil {
			t.Error(err)
		}
		if z.Aliases() != 1 || z.Materialized != 0 {
			t.Errorf("aliases=%d materialized=%d", z.Aliases(), z.Materialized)
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
}

// Reading an aliased destination as a new copy's source forces
// materialization (the SET-then-GET Redis pattern).
func TestZIOReadOfAliasedDstMaterializes(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 8 << 10
	src := mkbuf(t, p, n+512, 0x44)
	mid := mkbuf(t, p, n+512, 0)
	out := mkbuf(t, p, n+512, 0)
	th := m.Spawn(p, "t", func(th *kernel.Thread) {
		if err := z.Memcpy(th, mid+9, src+100, n); err != nil {
			t.Error(err)
		}
		// mid is an unmaterialized alias; copying FROM it must
		// materialize first.
		if err := z.Memcpy(th, out+50, mid+9, n); err != nil {
			t.Error(err)
		}
		if z.Materialized != 1 {
			t.Errorf("materialized = %d", z.Materialized)
		}
		// The app's read of the (re-aliased) output faults the last
		// deferred copy in.
		if err := z.TouchRead(th, out+50, 32); err != nil {
			t.Error(err)
		}
		got := make([]byte, 32)
		if err := p.AS.ReadAt(out+50, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x44}, 32)) {
			t.Error("chained alias copy lost data")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
}

// PrepareOverwrite re-owns shared pages without copying; partial
// pages and unshared pages are untouched.
func TestZIOPrepareOverwrite(t *testing.T) {
	m := newM(2)
	p := m.NewProcess("app")
	z := NewZIO(m, 4<<10)
	const n = 16 << 10
	src := mkbuf(t, p, n, 0x88)
	dst := mkbuf(t, p, n, 0)
	th := m.Spawn(p, "t", func(th *kernel.Thread) {
		if err := z.Memcpy(th, dst, src, n); err != nil { // aligned: remap path
			t.Error(err)
		}
		if z.PagesShared == 0 {
			t.Fatal("no pages shared")
		}
		if err := z.PrepareOverwrite(th, src, n); err != nil {
			t.Error(err)
		}
		// (PrepareCoWBreak itself counts as a CoW resolution; what
		// matters is that the write below takes none.)
		faultsBefore := p.AS.Faults[mem.FaultCoW]
		// Overwriting src now costs no CoW faults.
		if err := p.AS.WriteAt(src, bytes.Repeat([]byte{0x99}, n)); err != nil {
			t.Error(err)
		}
		if p.AS.Faults[mem.FaultCoW] != faultsBefore {
			t.Error("PrepareOverwrite left CoW faults behind")
		}
		// The logical copy still holds the old data.
		got := make([]byte, 32)
		if err := p.AS.ReadAt(dst, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0x88}, 32)) {
			t.Error("re-own corrupted the shared copy")
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
}
