package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/jobio"
)

// corpusGoldens are SHA-256 digests of generated corpora: per config and
// seed, the wire JSON of a 3000-job Poisson flow's jobs each followed by
// its arrival tick, then of Job(0..499). They were computed before the
// generator built jobs by task index and pin that it still draws the same
// corpus: every experiment, golden and benchmark workload reads it.
var corpusGoldens = map[string]string{
	"default/1": "256c55b4d25ec24b5b4c1295d31eefab36fb184c0bc9bf39285cb69d06f44a98",
	"default/2": "1500a777a9e9fc72d6ae1ecbccd263b23417cf9dab21811184406fe5e1f3b300",
	"default/7": "e71855b23c40cafc513fb26b894cc844d41935b83fcaf42df6347887dcd24e55",
	"fig4/1":    "853f475f1c9d1cf7c1a7345951e527da27ac7b72c3cc2b9bacd44fc88ee2dc4c",
	"fig4/2":    "ae6e179b1f2f54b038308f2518834eb780dbd730feedbff3bef18c0572afd4fc",
	"fig4/7":    "635646b8a308a1812a11ea56bc7c747b48c42d0e5607d652c8b3378809ab7b55",
	"light/1":   "fa02ba2f6aaae2b44f076ed73fc9132934ebd0c626dc2c4de0ac8abdb61ea83c",
	"light/2":   "9a509ab216092d58fd1ed5f561355341246420b91f5c926f7463fbf39f811a74",
	"light/7":   "29a5e2826d21110bf0b883c8bcd6b5b520feefe0c496fa6821f201dbc2a4dadd",
}

// goldenConfigs are the corpus shapes the workloads use: §4's default, the
// Fig. 4 job flow's, and the light jobs of the federated path.
func goldenConfigs(seed uint64) map[string]Config {
	fig4 := Default(seed)
	fig4.DeadlineFactor = 1.8
	fig4.TransferLo, fig4.TransferHi = 2, 8
	fig4.PipelineProb, fig4.MaxPipeline = 0.6, 3
	fig4.MinWidth, fig4.MaxWidth = 2, 3
	fig4.MinLayers, fig4.MaxLayers = 3, 4
	fig4.MeanInterarrival = 16
	light := Default(seed)
	light.MinLayers, light.MaxLayers = 2, 2
	light.MinWidth, light.MaxWidth = 1, 2
	return map[string]Config{"default": Default(seed), "fig4": fig4, "light": light}
}

func corpusDigest(cfg Config) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	g := New(cfg)
	for _, a := range g.Flow(0, 3000, 0) {
		if err := enc.Encode(jobio.FromJob(a.Job)); err != nil {
			panic(err)
		}
		fmt.Fprintf(h, "%d\n", a.At)
	}
	for i := 0; i < 500; i++ {
		if err := enc.Encode(jobio.FromJob(g.Job(i))); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusGolden: the generator draws the corpus it drew before, byte for
// byte on the wire, arrival ticks included.
func TestCorpusGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		for name, cfg := range goldenConfigs(seed) {
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := corpusDigest(cfg); got != corpusGoldens[key] {
				t.Errorf("%s: corpus digest %s, golden %s", key, got, corpusGoldens[key])
			}
		}
	}
}
