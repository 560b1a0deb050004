package kernel

import (
	"errors"
	"fmt"

	"copier/internal/cycles"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/units"
)

// FS is a RAM-backed file system with a page cache: files are lists
// of kernel frames. read(2) copies page-cache pages into user memory
// — the copy the paper's libpng workload spends its read() time in
// (Fig. 2-a, Fig. 3) — and sendfile(2) transfers file data into a
// socket without a user-space bounce (Table 1's comparison point).
type FS struct {
	m     *Machine
	files map[string]*File
}

// File is one cached file.
type File struct {
	Name string
	Size units.Bytes
	// va is the page-cache mapping in the kernel address space.
	va mem.VA
}

// ErrNotFound is returned for missing files.
var ErrNotFound = errors.New("kernel: file not found")

// NewFS creates the file system.
func (m *Machine) NewFS() *FS { return &FS{m: m, files: make(map[string]*File)} }

// Create writes a file into the page cache.
func (fs *FS) Create(name string, data []byte) *File {
	va := fs.m.KernelAS.MMap(units.Bytes(len(data)), mem.PermRead|mem.PermWrite, "pagecache:"+name)
	if _, err := fs.m.KernelAS.Populate(va, units.Bytes(len(data)), true); err != nil {
		panic(err)
	}
	if err := fs.m.KernelAS.WriteAt(va, data); err != nil {
		panic(err)
	}
	f := &File{Name: name, Size: units.Bytes(len(data)), va: va}
	fs.files[name] = f
	return f
}

// Open looks a file up.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// fileLookupCost is the dentry/inode path per read call (cache hot).
const fileLookupCost = 500

// Read is read(2) from the page cache: trap, lookup, one copy to user
// memory. copier selects the Copier-Linux path: the page-cache→user
// copy is submitted as a k-mode Copy Task and the app csyncs before
// use (the libpng pattern: decode proceeds while the tail of the image
// is still being copied). A process without an attachment, or a
// request for fewer than CopierFallbackMin bytes, copies synchronously
// with ERMS.
func (fs *FS) Read(t *Thread, f *File, off units.Bytes, buf mem.VA, n units.Bytes, copier bool) (units.Bytes, error) {
	a := t.copierFor(copier)
	if n < CopierFallbackMin {
		a = nil
	}
	if off >= f.Size {
		return 0, nil
	}
	n = min(n, f.Size-off)
	src := f.va + mem.VA(off)
	var err error
	t.Syscall("read", func() {
		t.Exec(fileLookupCost)
		if a == nil {
			err = t.KernelCopy(t.Proc.AS, buf, t.m.KernelAS, src, n)
			return
		}
		err = a.Lib.AmemcpyOpts(t, buf, src, n, libcopier.Opts{
			KMode: true,
			SrcAS: t.m.KernelAS, DstAS: t.Proc.AS,
		})
	})
	return n, err
}

// SendFile is sendfile(2): file pages are copied straight into a
// socket buffer in kernel space (SendSkb), with no user-space bounce.
// The synchronous copy still blocks the caller (Table 1: "address
// transfer in kernel", blocking). copier delegates it to the service
// as one k-mode Copy Task between kernel virtual addresses (page cache
// → skb), synced before the NIC doorbell, at every size.
func (fs *FS) SendFile(t *Thread, s *Socket, f *File, off, n units.Bytes, copier bool) error {
	a := t.copierFor(copier)
	if off+n > f.Size {
		n = f.Size - off
	}
	var err error
	t.Syscall("sendfile", func() {
		t.Exec(fileLookupCost + cycles.SocketBookkeeping)
		err = s.SendSkb(t, a, t.m.KernelAS, f.va+mem.VA(off), n)
	})
	return err
}
