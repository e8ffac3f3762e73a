package parclust

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// MST identity pin: the MemoGFK EMST and HDBSCAN* edge lists of fixed
// seeded inputs must hash to recorded values, edge order included. The
// hashes were recorded with whole-batch sort-then-union Kruskal, at
// GOMAXPROCS 1 and 4; an optimization of the MST layer must leave which
// edges MemoGFK accepts, their order and their weights unchanged.

// edgeListHash is the SHA-256 of the edges in order, each as little-endian
// U, V (int32) and the IEEE-754 bits of W.
func edgeListHash(edges []Edge) string {
	h := sha256.New()
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mstIdentityPins maps "<data>/<metric>/<dtype>/<emst|hdbscan>" to the
// recorded edge-list hash.
var mstIdentityPins = map[string]string{
	"varden2d/l2/f64/emst":    "ce4562e0ba7486f1bfd96ff21b15c7cf33b02e274bf1c155ec213371405de911",
	"varden2d/l2/f64/hdbscan": "d686bf070f762802539b8fe6d35fd0ecf56b6fdf02cfb62deb4b660d90c5fc0c",
	"varden2d/l2/f32/emst":    "ce4562e0ba7486f1bfd96ff21b15c7cf33b02e274bf1c155ec213371405de911",
	"varden2d/l2/f32/hdbscan": "8244adecc5c6e05667e67c8cc0ec20d9e8d1e8591721614f7904b288164900fa",
	"varden2d/l1/f64/emst":    "f9f044ca24628eab952feb9382b07248edfd3623fb242b6ca8388f791f14eb0a",
	"varden2d/l1/f64/hdbscan": "831f34c7a4178233a5d520e0e682b7f36388f103649dbb9a6297d508de980889",
	"varden2d/l1/f32/emst":    "f9f044ca24628eab952feb9382b07248edfd3623fb242b6ca8388f791f14eb0a",
	"varden2d/l1/f32/hdbscan": "fd14e91be4ed0febda06eb88c16772e733d685e6b9d949d360bbb8e2c07e4885",
	"gmm7d/l2/f64/emst":       "5b57681c7d8b75c19976283eaf1677b31c0cfd2645d1573424da22b9bd533834",
	"gmm7d/l2/f64/hdbscan":    "d3c4f6b705500199f11b08d02b419a7a3e7d0a96839f0fc0d80af29ff878b214",
	"gmm7d/l2/f32/emst":       "5b57681c7d8b75c19976283eaf1677b31c0cfd2645d1573424da22b9bd533834",
	"gmm7d/l2/f32/hdbscan":    "ff2a1248c500797213306159f02e12ac813472426035442b01c99e05ee0454ba",
	"gmm7d/l1/f64/emst":       "ec3fa107a9e6c72729aa1e6e70b4125009561185ab6e3dc1c600c6b377609267",
	"gmm7d/l1/f64/hdbscan":    "45a41e17454bf88a1521726699069301228692c41f96980255bc824c82006a25",
	"gmm7d/l1/f32/emst":       "ec3fa107a9e6c72729aa1e6e70b4125009561185ab6e3dc1c600c6b377609267",
	"gmm7d/l1/f32/hdbscan":    "b33f3ab15eed6c5177dfee1c747d999cc1ada751c0bd3e6bfd9cdafafa1224cb",
}

func TestMSTIdentityPin(t *testing.T) {
	const minPts = 10
	data := []struct {
		name string
		pts  Points
	}{
		{"varden2d", GenerateVarden(4000, 2, 5)},
		{"gmm7d", GenerateGaussianMixture(3000, 7, 6, 9)},
	}
	for _, d := range data {
		for _, m := range []Metric{MetricL2, MetricL1} {
			for _, f32 := range []bool{false, true} {
				dtype := "f64"
				if f32 {
					dtype = "f32"
				}
				prefix := fmt.Sprintf("%s/%v/%s", d.name, m, dtype)
				ix, err := NewIndex(d.pts, &IndexOptions{Metric: m, Float32: f32})
				if err != nil {
					t.Fatal(err)
				}
				emst, err := ix.EMST()
				if err != nil {
					t.Fatal(err)
				}
				h, err := ix.HDBSCAN(minPts)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					kind  string
					edges []Edge
				}{{"emst", emst}, {"hdbscan", h.MST}} {
					key := prefix + "/" + c.kind
					if len(c.edges) != d.pts.N-1 {
						t.Errorf("%s: %d edges, want %d", key, len(c.edges), d.pts.N-1)
					}
					if got, want := edgeListHash(c.edges), mstIdentityPins[key]; got != want {
						t.Errorf("%s: edge-list hash %s, want %s", key, got, want)
					}
				}
			}
		}
	}
}
