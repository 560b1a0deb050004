package kernel_test

import (
	"errors"
	"testing"

	"copier/internal/baseline"
	"copier/internal/kernel"
	"copier/internal/mem"
	"copier/internal/units"
)

// TestFailedCopyReturnsSkbToPool faults the synchronous copy between a
// user buffer and a socket buffer on each path that makes one, and
// checks that the operation fails with (0, err) and hands the socket
// buffer back to the pool. One buffer of the size class is put in the
// pool first: the failing operation takes it, and the next allocation
// of that class returns the same buffer only if it came back.
func TestFailedCopyReturnsSkbToPool(t *testing.T) {
	const n = 4 << 10
	for _, tc := range []struct {
		name string
		// run performs the failing operation with the unmapped user
		// buffer bad, over socket pair sa→sb; good is a mapped buffer.
		run func(th *kernel.Thread, sa, sb *kernel.Socket, good, bad mem.VA) (units.Bytes, error)
	}{
		{"Recv", func(th *kernel.Thread, sa, sb *kernel.Socket, good, bad mem.VA) (units.Bytes, error) {
			if err := sa.Send(th, good, n, false); err != nil {
				return 0, err
			}
			return sb.Recv(th, bad, n, false)
		}},
		{"UB.RecvNT", func(th *kernel.Thread, sa, sb *kernel.Socket, good, bad mem.VA) (units.Bytes, error) {
			if err := sa.Send(th, good, n, false); err != nil {
				return 0, err
			}
			return baseline.NewUB().RecvNT(th, sb, bad, n)
		}},
		{"IOUring send", func(th *kernel.Thread, sa, sb *kernel.Socket, good, bad mem.VA) (units.Bytes, error) {
			u := baseline.NewIOUring(th.Machine())
			defer u.Stop()
			sqe := &baseline.SQE{Send: true, Sock: sa, Proc: th.Proc, Buf: bad, Len: n}
			u.Submit(th, sqe)
			u.WaitAll(th, sqe)
			return sqe.Got, sqe.Err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := kernel.NewMachine(kernel.Config{Cores: 2, MemBytes: 64 << 20})
			p := m.NewProcess("p")
			good := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "good")
			if _, err := p.AS.Populate(good, n, true); err != nil {
				t.Fatal(err)
			}
			bad := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "bad")
			if err := p.AS.MUnmap(bad); err != nil {
				t.Fatal(err)
			}
			sa, sb := m.Net().SocketPair("a", "b")
			th := m.Spawn(p, "t", func(th *kernel.Thread) {
				net := m.Net()
				skb := net.AllocSkb(th, n)
				net.FreeSkb(skb)
				got, err := tc.run(th, sa, sb, good, bad)
				if !errors.Is(err, mem.ErrBadAddress) || got != 0 {
					t.Errorf("got (%d, %v), want (0, %v)", got, err, mem.ErrBadAddress)
				}
				if again := net.AllocSkb(th, n); again != skb {
					t.Error("the failed copy did not return its socket buffer to the pool")
				}
			})
			if err := m.RunApps(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}
