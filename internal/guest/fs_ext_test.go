package guest

import (
	"testing"

	"repro/internal/hw"
)

func TestRename(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/a")
		p.Write(fd, 5000)
		p.Close(fd)
		if err := p.Rename("/a", "/b"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open("/a"); err == nil {
			t.Error("old name still resolves")
		}
		if n, err := p.Stat("/b"); err != nil || n != 5000 {
			t.Errorf("renamed file: size=%d err=%v", n, err)
		}
		// Rename into a directory.
		p.Syscall(func(c *hw.CPU) {
			if _, err := k.FS.Mkdir(c, "/d"); err != nil {
				t.Error(err)
			}
		})
		if err := p.Rename("/b", "/d/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Stat("/d/c"); err != nil {
			t.Error(err)
		}
	})
}

func TestHardLinks(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/orig")
		p.Write(fd, 8192)
		p.Close(fd)
		if err := p.Link("/orig", "/alias"); err != nil {
			t.Fatal(err)
		}
		var n1, n2 int
		p.Syscall(func(c *hw.CPU) {
			n1, _ = k.FS.Nlink(c, "/orig")
		})
		if n1 != 2 {
			t.Fatalf("nlink = %d", n1)
		}
		// Removing one name keeps the data reachable via the other.
		if err := p.Unlink("/orig"); err != nil {
			t.Fatal(err)
		}
		if got := func() int {
			fd2, err := p.Open("/alias")
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close(fd2)
			return p.Read(fd2, 10000)
		}(); got != 8192 {
			t.Errorf("read %d via surviving link", got)
		}
		p.Syscall(func(c *hw.CPU) { n2, _ = k.FS.Nlink(c, "/alias") })
		if n2 != 1 {
			t.Fatalf("nlink after unlink = %d", n2)
		}
		// Last unlink frees everything.
		frames := k.Frames.InUse()
		if err := p.Unlink("/alias"); err != nil {
			t.Fatal(err)
		}
		if k.Frames.InUse() >= frames {
			t.Error("last unlink released no frames")
		}
		// Linking a directory is refused.
		p.Syscall(func(c *hw.CPU) {
			if _, err := k.FS.Mkdir(c, "/dir"); err != nil {
				t.Error(err)
			}
		})
		if err := p.Link("/dir", "/dir2"); err == nil {
			t.Error("hard-linked a directory")
		}
	})
}

func TestTruncate(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/t")
		p.Write(fd, 10*hw.PageSize)
		p.Close(fd)
		framesBefore := k.Frames.InUse()
		if err := p.Truncate("/t", 2*hw.PageSize); err != nil {
			t.Fatal(err)
		}
		if n, _ := p.Stat("/t"); n != 2*hw.PageSize {
			t.Errorf("size after truncate = %d", n)
		}
		if k.Frames.InUse() >= framesBefore {
			t.Error("truncate released no cache frames")
		}
		// Extending truncate only changes size.
		if err := p.Truncate("/t", 5*hw.PageSize); err != nil {
			t.Fatal(err)
		}
		if n, _ := p.Stat("/t"); n != 5*hw.PageSize {
			t.Errorf("size after extend = %d", n)
		}
		if err := p.Truncate("/nope", 0); err == nil {
			t.Error("truncated a missing file")
		}
	})
}

func TestReadDir(t *testing.T) {
	k := nativeKernel(t, 1)
	run(t, k, func(p *Proc) {
		p.Syscall(func(c *hw.CPU) {
			if _, err := k.FS.Mkdir(c, "/x"); err != nil {
				t.Error(err)
			}
		})
		for _, name := range []string{"/x/c", "/x/a", "/x/b"} {
			fd, _ := p.Creat(name)
			p.Write(fd, 100)
			p.Close(fd)
		}
		p.Syscall(func(c *hw.CPU) {
			if _, err := k.FS.Mkdir(c, "/x/sub"); err != nil {
				t.Error(err)
			}
		})
		ents, err := p.ReadDir("/x")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 4 {
			t.Fatalf("entries = %d", len(ents))
		}
		// Name order, dirs flagged.
		want := []string{"a", "b", "c", "sub"}
		for i, e := range ents {
			if e.Name != want[i] {
				t.Fatalf("entry %d = %s, want %s", i, e.Name, want[i])
			}
		}
		if !ents[3].Dir || ents[0].Dir {
			t.Error("dir flags wrong")
		}
		if _, err := p.ReadDir("/x/a"); err == nil {
			t.Error("ReadDir on a file succeeded")
		}
	})
}

// unlinkDuringIO is a block driver that unlinks a file in the middle of
// the first write batch, as a process on another CPU may, and records
// which frames were under I/O and whether they were still referenced.
type unlinkDuringIO struct {
	BlockDriver
	k      *Kernel
	path   string
	frames []hw.PFN
	pinned []bool
}

func (d *unlinkDuringIO) Submit(c *hw.CPU, reqs []BlockReq) {
	if d.frames == nil && len(reqs) > 0 && reqs[0].Write {
		if err := d.k.FS.Unlink(c, d.path); err != nil {
			panic(err)
		}
		for _, r := range reqs {
			d.frames = append(d.frames, r.PFN)
			d.pinned = append(d.pinned, d.k.pageRefCount(r.PFN) > 0)
		}
	}
	d.BlockDriver.Submit(c, reqs)
}

func TestFSWritebackPinsFramesAgainstUnlink(t *testing.T) {
	k := nativeKernel(t, 1)
	drv := &unlinkDuringIO{BlockDriver: k.Blk, k: k, path: "/f"}
	k.Blk = drv
	run(t, k, func(p *Proc) {
		fd, _ := p.Creat("/f")
		p.Write(fd, 4*hw.PageSize)
		p.Close(fd)
		p.Syscall(func(c *hw.CPU) { k.FS.Sync(c) })
	})
	if len(drv.frames) != 4 {
		t.Fatalf("writeback submitted %d frames, want 4", len(drv.frames))
	}
	for i, pfn := range drv.frames {
		if !drv.pinned[i] {
			t.Fatalf("frame %d was freed while the disk read it", pfn)
		}
		if n := k.pageRefCount(pfn); n != 0 {
			t.Fatalf("frame %d still has %d references after the I/O", pfn, n)
		}
	}
}
