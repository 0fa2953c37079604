package core

import (
	"context"
	"fmt"
)

// SuiteOptions configures RunAllExperiments. It has no fields: the suite
// is one registry-order loop with nothing to tune. The struct stays so
// callers written against earlier versions keep compiling.
type SuiteOptions struct{}

// SuiteResult is one experiment's rendered artifact.
type SuiteResult struct {
	ID     string
	Title  string
	Output string
}

// RunAllExperiments runs the full registry in registry order and returns
// the artifacts in that order. Experiments share the study's dataset
// registry, so each scan corpus is built once by its first reader; the
// world-mutating experiments (S722, E4, E7) mark the hosts they changed
// dirty and the next reader patches the corpus. The first error aborts
// the suite and is returned with the rendered prefix; a cancelled context
// stops the loop before the next experiment starts.
func RunAllExperiments(ctx context.Context, s *Study, _ SuiteOptions) ([]SuiteResult, error) {
	exps, _ := registry()
	results := make([]SuiteResult, 0, len(exps))
	for i := range exps {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		out, err := exps[i].Run(ctx, s)
		if err != nil {
			return results, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		results = append(results, SuiteResult{ID: exps[i].ID, Title: exps[i].Title, Output: out})
	}
	return results, nil
}
