package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// setupDigests pins, per item, the sha256 of a fresh Java heap after one
// Setup, at ScaleSmall and ScaleDefault: every live block's offset, size
// and raw bytes (object header and payload) in address order.
var setupDigests = map[string][2]string{
	"File Compression": {
		"9bfd4401bb37cd6f841ad708487c0556057c5dc6b57e9a7d778cfcfa6c7630ae",
		"c3409340cf279b04b3a7bb91bbe5b6624bde29d4a5173ffaaf2721e8017cbf85"},
	"Navigation": {
		"bc09cba87c3a3d7c7badb0de4fe08339a152d818c031792c5501ec1f699ced7e",
		"14ed30593026a482e51cb1b7d061f3480d5402883c4079cecab5586cca4bea32"},
	"HTML5 Browser": {
		"8a7a292639451fd3ac65a915356c64f49e731cefdcd0f5764ec73214b5b2d1db",
		"551b394da598ad25aeabba61725851023319f2dbc36d9cc08dab466ebbaa1b65"},
	"PDF Renderer": {
		"7c0277285c2df4229072f986acef4c426355703b0e9be45a3decbac95e1fc8a9",
		"30358ce87f253971b2d70086aef5ca69201a19046555a48af9c8787e203a43f1"},
	"Photo Library": {
		"27115aa0f5ffcf348d0e38be243cd692e91e351a6ae7a2977f0978e938ebe56f",
		"b309657447e62bbc4829f83e45ee22e3e56f86ca9768a65ad4d1649c957de3dd"},
	"Clang": {
		"3606613f1b86b7bc64871687ba788e9211bda52870c3858c025740a2c85fb03c",
		"5286f2f1fb6b2774a824c3b162445a62888673ecc1217d050079dc4249d6a239"},
	"Text Processing": {
		"eebf3ff9b00d3c899e60e3c682d9a105de306820b8606d8f21459bc800d40483",
		"e2cd32fc51d6d2d2f0c196d9c42510f699f2b4b6d13370609f365c1fc95eb0b7"},
	"Asset Compression": {
		"2778cb860b53a91810a7164aace060661371735d576ddca4d23eb5fcda4b7f3a",
		"01c6c31ac836fca231d59701dcba712c1d825b70179e0bc35147381507d9d2aa"},
	"Object Detection": {
		"1b63657ed1d08b7e65f9323d1cfe083fa83ba28dfc7da66cbd004c161621466d",
		"13a5d408b383f34a78c44ec1e7ce85a35f062dc5d0a86d9ff024cc45cf45d436"},
	"Background Blur": {
		"97648d34a992eed978c3d5cc461e198473e6e942523ac8f432c406a82404c4a1",
		"c872dd69bbab7e94f5b578de941c5f6d56f4325bf6c03a92be482555b6de665b"},
	"Horizon Detection": {
		"59883247a4ce3a98927cf8e113c32c6e859cdc944da4362c5ec4175edb410234",
		"b6e9f497907b3b2c295b5268da52a65319b19338bdd938c6cabfd2c1b50d361e"},
	"Object Remover": {
		"8c5166e0e0715627c846d056aff3414982f44bf97a61413ba0024ae360d54cb3",
		"89663ed8118c876c41b2eae71970a37937c228b3835a567644dceb1f5e730a77"},
	"HDR": {
		"6581c271e350f1ffba19f1a7e5802cdce301a5c56849f68efc0a4d480bd954f9",
		"a55b11e0596378c3e21660d2cbdb4f6e5335442270820d0a3029c8309c771a15"},
	"Photo Filter": {
		"024fe1b83058f4120551472b6d0c0c47640f45d987aed3639b5ce226694ff6a5",
		"aaf4241ab3531e69099b50e0e896139bb1b9f68b140c834930d939ba201127f4"},
	"Ray Tracer": {
		"950cc8ef1326d1f302ed67803dcaa96c3d5b6c4c1d1f30e6493d7e89bc9a9d04",
		"3fab28c49555355207ae615830634cc37aafe5ed94b24ccf80b057f0b1e6aca3"},
	"Structure from Motion": {
		"7fe7f0543e9df517f379ba8cd889eb9986cf9cb3220a27dacb9e3b8587de33ac",
		"047a6a1ff063d7fed077575b529f11efe907ca599e9919497d1455c674963ad1"},
}

// heapDigest hashes every live block of v's Java heap.
func heapDigest(v *vm.VM) (string, error) {
	h := sha256.New()
	m := v.JavaHeap.Mapping()
	var hdr [16]byte
	var err error
	v.JavaHeap.ForEach(func(addr mte.Addr, size uint64) {
		binary.LittleEndian.PutUint64(hdr[:8], uint64(addr-m.Base()))
		binary.LittleEndian.PutUint64(hdr[8:], size)
		h.Write(hdr[:])
		buf := make([]byte, size)
		if rerr := m.ReadRaw(addr, buf); rerr != nil && err == nil {
			err = rerr
		}
		h.Write(buf)
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// setupDigest runs w's Setup on a fresh VM and returns its heap digest.
func setupDigest(w Workload) (string, error) {
	v, err := vm.New(vm.Options{HeapSize: 64 << 20, NativeHeapSize: 1 << 20})
	if err != nil {
		return "", err
	}
	defer v.Close()
	th, err := v.AttachThread("setup")
	if err != nil {
		return "", err
	}
	if err := w.Setup(jni.NewEnv(th, jni.DirectChecker{}, true)); err != nil {
		return "", fmt.Errorf("%s setup: %w", w.Name(), err)
	}
	return heapDigest(v)
}

// checkSetup compares w's heap digest after Setup with its golden value.
func checkSetup(w Workload, scale Scale) error {
	got, err := setupDigest(w)
	if err != nil {
		return err
	}
	if want := setupDigests[w.Name()][scale]; got != want {
		return fmt.Errorf("%s at scale %d: heap digest %s, want %s", w.Name(), scale, got, want)
	}
	return nil
}

func TestSetupHeapDigests(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScaleDefault} {
		for _, w := range All(scale) {
			if err := checkSetup(w, scale); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestConcurrentSetupsOnEmptyCache runs every item's Setup from four
// goroutines at once, starting from an empty input cache, so the first
// builds of each input race: every heap must still match its digest.
func TestConcurrentSetupsOnEmptyCache(t *testing.T) {
	inputsMu.Lock()
	inputs = map[inputKey]*input{}
	inputsMu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range All(ScaleSmall) {
				if err := checkSetup(w, ScaleSmall); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	inputsMu.Lock()
	defer inputsMu.Unlock()
	if len(inputs) != 16 {
		t.Fatalf("%d cached inputs after every small Setup, want 16", len(inputs))
	}
}
