package rulecube

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/testutil"
)

// wideDataset builds a small dataset with nAttrs binary attributes plus
// a class, so the store has nAttrs·(nAttrs−1)/2 pair cubes — enough
// work for cancellation to land mid-build.
func wideDataset(t *testing.T, nAttrs int) *dataset.Dataset {
	t.Helper()
	attrs := make([]dataset.Attribute, nAttrs+1)
	for i := 0; i < nAttrs; i++ {
		attrs[i] = dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical}
	}
	attrs[nAttrs] = dataset.Attribute{Name: "class", Kind: dataset.Categorical}
	b, err := dataset.NewBuilder(dataset.Schema{Attrs: attrs, ClassIndex: nAttrs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= nAttrs; i++ {
		b.WithDict(i, dataset.DictionaryOf("u", "v"))
	}
	row := make([]string, nAttrs+1)
	for j := 0; j < 64; j++ {
		for i := 0; i <= nAttrs; i++ {
			if (j>>(uint(i)%6))&1 == 0 {
				row[i] = "u"
			} else {
				row[i] = "v"
			}
		}
		if err := b.AddRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildStoreContextPreCanceled(t *testing.T) {
	ds := wideDataset(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			defer testutil.VerifyNoLeak(t)()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			store, err := BuildStoreContext(ctx, ds, StoreOptions{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if store != nil {
				t.Error("canceled build must not return a store")
			}
		})
	}
}

// cancelDuringBuild starts a store build with a 50ms delay armed at the
// batch site (the one shared scan's entry), cancels after wait, and
// checks the build returns ctx.Err() within 100ms of the cancel.
func cancelDuringBuild(t *testing.T, ds *dataset.Dataset, wait time.Duration) {
	t.Helper()
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteCubeBatch,
		Kind:  faultinject.Delay,
		Delay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := BuildStoreContext(ctx, ds, StoreOptions{})
		done <- err
	}()
	time.Sleep(wait)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("build returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("build did not return within 2s of cancel")
	}
}

// TestBuildStoreContextCancelMidBuild is the acceptance check: cancel
// while the store build is in flight, and the build must return
// ctx.Err() within 100ms without leaking row-shard goroutines. The
// store build is one shared scan (row-shard parallel here), so the
// single batch site is the only build fault point; cancellation inside
// the scan itself is pinned by TestBuildManyCancelMidScan.
func TestBuildStoreContextCancelMidBuild(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	faultinject.Reset() // count this build's hits only
	cancelDuringBuild(t, wideDataset(t, 8), 20*time.Millisecond)
	if hits := faultinject.HitCount(faultinject.SiteCubeBatch); hits != 1 {
		t.Errorf("batch site hit %d times, want 1: the store build is one scan", hits)
	}
}

func TestBuildStoreContextSerialCancel(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cancelDuringBuild(t, wideDataset(t, 6), 10*time.Millisecond)
}

// TestBuildStoreContextFaultError proves an injected build error fails
// the store build and leaves no goroutine behind.
func TestBuildStoreContextFaultError(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	ds := wideDataset(t, 8)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site:  faultinject.SiteCubeBatch,
		Kind:  faultinject.Error,
		Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	store, err := BuildStoreContext(context.Background(), ds, StoreOptions{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if store != nil {
		t.Error("failed build must not return a store")
	}
}

// TestBuildStoreContextFaultOneD: a store over one attribute has no
// pairs, so its 1-D cube gets a dedicated plan; the batch fault fails
// that build too.
func TestBuildStoreContextFaultOneD(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	defer faultinject.Reset()
	ds := wideDataset(t, 4)
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: faultinject.SiteCubeBatch,
		Kind: faultinject.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	if _, err := BuildStoreContext(context.Background(), ds, StoreOptions{Attrs: []int{0}}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestBuildStoreContextUnchanged pins backward compatibility: a build
// under a background context equals the context-free build.
func TestBuildStoreContextUnchanged(t *testing.T) {
	ds := wideDataset(t, 5)
	plain, err := BuildStore(ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := BuildStoreContext(context.Background(), ds, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Error("context build differs from the context-free build")
	}
}
