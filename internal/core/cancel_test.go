package core

import (
	"context"
	"errors"
	"testing"

	"rlibm/internal/fp"
	"rlibm/internal/oracle"
	"rlibm/internal/poly"
)

// TestGenerateCanceled: a canceled context aborts generation with an error
// that unwraps to context.Canceled rather than producing a partial result.
func TestGenerateCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Generate(ctx, Config{Fn: oracle.Exp2, Scheme: poly.Horner, Input: fp.Bfloat16, Seed: 1})
	if err == nil {
		t.Fatalf("Generate with canceled context succeeded: %v", res.Describe())
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestGenerateAllCanceled: GenerateAll propagates cancellation from every
// concurrent scheme loop.
func TestGenerateAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateAll(ctx, Config{Fn: oracle.Exp2, Input: fp.Bfloat16, Seed: 1}, poly.PaperSchemes)
	if err == nil {
		t.Fatal("GenerateAll with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}
