package main

// pinned holds the label (batch, serve, cluster) and pick (wide)
// digests of the default and held-out seeds. A change that alters a
// pinned digest changed which queries the engine asks or which labels it
// returns — the pick-identity guarantee the selection engines keep.
var pinned = map[string]map[int64]string{
	"batch":   {defaultSeed: "c26a4e6d78592bbd", heldOutSeed: "ac4f024c998b7b3b"},
	"wide":    {defaultSeed: "e122fece88457b9d", heldOutSeed: "0d92ffc728b2e3b7"},
	"serve":   {defaultSeed: "e004d58540dcd344", heldOutSeed: "6c2650f3bfd79929"},
	"cluster": {defaultSeed: "c73f7af51b919d70", heldOutSeed: "474adcf734b03abd"},
}

// checkPin gates a run's digest against the pinned one, when the seed
// has one.
func checkPin(r *report, workload string, seed int64, got string) {
	want, ok := pinned[workload][seed]
	if ok && got != want {
		r.gate("%s seed %d: digest %s, pinned %s", workload, seed, got, want)
	}
}
