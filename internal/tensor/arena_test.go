package tensor

import (
	"sync"
	"testing"
)

func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	b1 := a.Get(100)
	if len(b1) != 100 || cap(b1) != 128 {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/128", len(b1), cap(b1))
	}
	b1[0] = 42
	a.Put(b1)
	b2 := a.Get(90) // same class: must reuse the same backing array
	if &b1[0] != &b2[0] {
		t.Fatal("Get after Put did not reuse the buffer")
	}
	if b2[0] != 42 {
		t.Fatal("arena zeroed a buffer: Get promises uninitialized memory")
	}
	st := a.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Outstanding != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Hits=1 Outstanding=1", st)
	}
	if st.BytesAcquired != 4*(100+90) {
		t.Fatalf("BytesAcquired = %d, want %d", st.BytesAcquired, 4*(100+90))
	}
}

func TestArenaMinClassAndDistinctClasses(t *testing.T) {
	a := NewArena()
	small := a.Get(1)
	if cap(small) != MinArenaClass {
		t.Fatalf("Get(1) cap = %d, want %d (cache-line floor)", cap(small), MinArenaClass)
	}
	a.Put(small)
	big := a.Get(1000)
	if cap(big) != 1024 {
		t.Fatalf("Get(1000) cap = %d, want 1024", cap(big))
	}
	if &big[0] == &small[0] {
		t.Fatal("different size classes shared a buffer")
	}
}

func TestArenaZeroLength(t *testing.T) {
	a := NewArena()
	b := a.Get(0)
	if len(b) != 0 {
		t.Fatalf("Get(0) len = %d", len(b))
	}
	a.Put(b)
}

func TestArenaGetTensor(t *testing.T) {
	a := NewArena()
	x := a.GetTensor(3, 4, 5)
	if x.Len() != 60 || x.Dim(0) != 3 || x.Dim(2) != 5 {
		t.Fatalf("GetTensor shape wrong: %v", x.Dims)
	}
	data := &x.Data[0]
	a.PutTensor(x)
	y := a.GetTensor(4, 4, 4) // 64 elems: same class as 60
	if &y.Data[0] != data {
		t.Fatal("GetTensor did not reuse pooled data")
	}
	if x != y {
		t.Fatal("GetTensor did not recycle the tensor header")
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := a.Get(64 + g*100)
				for j := range b {
					b[j] = float32(g)
				}
				a.Put(b)
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("Outstanding = %d after balanced Get/Put", st.Outstanding)
	}
	if st.Gets != 8*200 {
		t.Fatalf("Gets = %d, want %d", st.Gets, 8*200)
	}
}

func TestArenaGrowHookFiresOnMissOnly(t *testing.T) {
	a := NewArena()
	var grown []int64
	a.SetGrowHook(func(bytes int64) { grown = append(grown, bytes) })

	buf := a.Get(100) // miss: class 128 floats = 512 bytes
	a.Put(buf)
	if len(grown) != 1 || grown[0] != 512 {
		t.Fatalf("grow events = %v, want [512]", grown)
	}
	buf = a.Get(100) // hit: no growth
	a.Put(buf)
	if len(grown) != 1 {
		t.Fatalf("hit fired grow hook: %v", grown)
	}
	a.SetGrowHook(nil)
	_ = a.Get(1 << 12)
	if len(grown) != 1 {
		t.Fatal("nil hook still fired")
	}
}
