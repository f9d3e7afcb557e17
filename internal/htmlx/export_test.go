package htmlx

// Test-only views for the external fuzz test (fuzz_test.go), which seeds
// from simulated deep-web pages: deepweb imports htmlx, so that test
// lives in package htmlx_test and reaches these through the exports.
var (
	TreeEqual   = treeEqual
	TrickyPages = trickyPages
)

// ConformanceInputs returns the input of every conformance case.
func ConformanceInputs() []string {
	out := make([]string, len(conformanceCases))
	for i, c := range conformanceCases {
		out[i] = c.in
	}
	return out
}
