package kernel

import (
	"bytes"
	"errors"
	"testing"

	"copier/internal/core"
	"copier/internal/mem"
	"copier/internal/units"
)

func TestFSReadBaseline(t *testing.T) {
	m := newMachine(2)
	p := m.NewProcess("app")
	fs := m.NewFS()
	payload := bytes.Repeat([]byte("filedata"), 1024)
	plen := units.Bytes(len(payload))
	f := fs.Create("a.txt", payload)
	buf := mkbuf(t, p, plen, 0)
	th := m.Spawn(p, "r", func(th *Thread) {
		n, err := fs.Read(th, f, 0, buf, plen, false)
		if err != nil || n != plen {
			t.Errorf("read: %d %v", n, err)
		}
		// Offset read + short read at EOF.
		n, err = fs.Read(th, f, plen-16, buf, 64, false)
		if err != nil || n != 16 {
			t.Errorf("tail read: %d %v", n, err)
		}
		n, _ = fs.Read(th, f, plen+5, buf, 64, false)
		if n != 0 {
			t.Errorf("past-EOF read: %d", n)
		}
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := p.AS.ReadAt(buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:8], []byte("filedata")) {
		t.Fatalf("buf = %q", got)
	}
}

func TestFSOpenMissing(t *testing.T) {
	m := newMachine(2)
	fs := m.NewFS()
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFSReadCopierOverlaps(t *testing.T) {
	const n = 64 << 10
	run := func(copier bool) (int64, []byte) {
		m := newMachine(3)
		m.InstallCopier(core.DefaultConfig(), 1, 2)
		p := m.NewProcess("app")
		a := m.AttachCopier(p)
		fs := m.NewFS()
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		f := fs.Create("img", payload)
		buf := mkbuf(t, p, n, 0)
		var busy int64
		got := make([]byte, n)
		th := m.Spawn(p, "r", func(th *Thread) {
			start := th.Now()
			if _, err := fs.Read(th, f, 0, buf, n, copier); err != nil {
				t.Error(err)
			}
			// Work during the window, then sync and verify.
			th.Exec(30_000)
			if copier {
				if err := a.Lib.Csync(th, buf, n); err != nil {
					t.Error(err)
				}
			}
			if err := p.AS.ReadAt(buf, got); err != nil {
				t.Error(err)
			}
			busy = int64(th.Now() - start)
		})
		if err := m.RunApps(th); err != nil {
			t.Fatal(err)
		}
		return busy, got
	}
	baseT, baseData := run(false)
	copT, copData := run(true)
	if !bytes.Equal(baseData, copData) {
		t.Fatal("copier read corrupted data")
	}
	if copT >= baseT {
		t.Fatalf("copier read %d !< baseline %d (copy not hidden)", copT, baseT)
	}
}

func TestSendFileBothPaths(t *testing.T) {
	const n = 32 << 10
	for _, copier := range []bool{false, true} {
		m := newMachine(3)
		m.InstallCopier(core.DefaultConfig(), 1, 2)
		srv := m.NewProcess("srv")
		cli := m.NewProcess("cli")
		m.AttachCopier(srv)
		fs := m.NewFS()
		payload := bytes.Repeat([]byte{0xF5}, n)
		f := fs.Create("blob", payload)
		ss, cs := m.Net().SocketPair("s", "c")
		rbuf := mkbuf(t, cli, n, 0)
		tx := m.Spawn(srv, "tx", func(th *Thread) {
			if err := fs.SendFile(th, ss, f, 0, n, copier); err != nil {
				t.Error(err)
			}
		})
		rx := m.Spawn(cli, "rx", func(th *Thread) {
			got, err := cs.Recv(th, rbuf, n, false)
			if err != nil || got != n {
				t.Errorf("recv %d %v", got, err)
			}
		})
		if err := m.RunApps(tx, rx); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if err := cli.AS.ReadAt(rbuf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("copier=%v: sendfile corrupted payload", copier)
		}
	}
}

func TestSendFileSkipsUserCopy(t *testing.T) {
	m := newMachine(2)
	srv := m.NewProcess("srv")
	fs := m.NewFS()
	const n = 64 << 10
	f := fs.Create("blob", make([]byte, n))
	ss, cs := m.Net().SocketPair("s", "c")
	cs.Close()
	_ = cs
	// sendfile must beat read+send (one copy vs two + extra trap).
	buf := mkbuf(t, srv, n, 0)
	var sendfileT, readSendT int64
	th := m.Spawn(srv, "t", func(th *Thread) {
		s0 := th.Now()
		if err := fs.SendFile(th, ss, f, 0, n, false); err != nil {
			t.Error(err)
		}
		sendfileT = int64(th.Now() - s0)
		s1 := th.Now()
		if _, err := fs.Read(th, f, 0, buf, n, false); err != nil {
			t.Error(err)
		}
		if err := ss.Send(th, buf, n, false); err != nil {
			t.Error(err)
		}
		readSendT = int64(th.Now() - s1)
	})
	if err := m.RunApps(th); err != nil {
		t.Fatal(err)
	}
	if sendfileT >= readSendT {
		t.Fatalf("sendfile %d !< read+send %d", sendfileT, readSendT)
	}
	_ = mem.VA(0)
}
