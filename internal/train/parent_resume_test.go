package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
)

// TestParentCheckpointsResume loads SNCK files that the per-method
// steppers wrote (two epochs of a four-epoch run, recorded before they
// were collapsed onto core's shared loop) and resumes them: the
// MethodState blobs must still decode, and the finished runs must land
// on the weights the old steppers reached from the same files. The
// files and digests live in testdata/parent; regenerate both (only when
// a PR states why the state layout or the arithmetic may change) with
// PARENT_SNCK_UPDATE=1 go test ./internal/train -run TestParentCheckpointsResume.
func TestParentCheckpointsResume(t *testing.T) {
	ds := tinyDataset(t, 90)
	dir := filepath.Join("testdata", "parent")
	update := os.Getenv("PARENT_SNCK_UPDATE") == "1"
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var recorded strings.Builder
	want := map[string]string{}
	if !update {
		raw, err := os.ReadFile(filepath.Join(dir, "resumed.golden"))
		if err != nil {
			t.Fatalf("missing golden file (regenerate with PARENT_SNCK_UPDATE=1): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			k, v, _ := strings.Cut(line, " ")
			want[k] = v
		}
	}
	for _, name := range append(core.MethodNames(), "alsh-parallel") {
		batch := 10
		if name == "alsh" {
			batch = 1 // the old sequential stepper was only bit-stable one row at a time
		}
		build := func(epochs int, statePath string) *Trainer {
			tr, err := New(parentMethod(t, name, ds), ds, Config{
				Epochs: epochs, BatchSize: batch, Seed: 92, StatePath: statePath,
				// The parent skipped the per-epoch rebuild for
				// alsh-parallel (the bug this PR fixes), so only the
				// sequential run can ask for it and still compare.
				RebuildPerEpoch: name == "alsh",
			})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		snck := filepath.Join(dir, name+".snck")
		if update {
			if _, err := build(2, snck).Run(); err != nil {
				t.Fatal(err)
			}
			os.Remove(snck + ".prev")
		}
		// Resume rewrites its state file, so work on a copy.
		raw, err := os.ReadFile(snck)
		if err != nil {
			t.Fatal(err)
		}
		work := filepath.Join(t.TempDir(), name+".snck")
		if err := os.WriteFile(work, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		tr := build(4, work)
		hist, err := tr.Resume(work)
		if err != nil {
			t.Fatalf("%s: resuming the parent's checkpoint: %v", name, err)
		}
		if len(hist.Epochs) != 4 {
			t.Fatalf("%s: resumed run recorded %d epochs, want 4", name, len(hist.Epochs))
		}
		var buf bytes.Buffer
		if err := tr.method.Net().Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&recorded, "%s %s\n", name, got)
		if !update && got != want[name] {
			t.Errorf("%s: resumed weights digest %s, parent reached %s", name, got, want[name])
		}
	}
	if update {
		if err := os.WriteFile(filepath.Join(dir, "resumed.golden"), []byte(recorded.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// parentMethod builds the small fixed model the parent checkpoints were
// taken with (kept small so the committed files stay a few KB each).
func parentMethod(t *testing.T, name string, ds *dataset.Dataset) core.Method {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(ds.Spec.Dim(), 10, 2, ds.Spec.Classes), rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions(91)
	o.DropoutKeep = 0.5
	o.MC.K = 4
	o.ALSH.Params.K, o.ALSH.Params.L, o.ALSH.Params.M, o.ALSH.Params.U = 3, 4, 3, 0.83
	o.ALSH.MinActive = 3
	o.Workers = 1
	m, err := core.New(name, net, opt.NewMomentum(0.02, 0.9), o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
