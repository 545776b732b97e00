package compress

import "sync"

// Pooled scratch for the per-waveform buffers: windowed-transform
// coefficients and reconstructions, and the DCT-N float and coefficient
// arrays. All of them are as long as the waveform itself; pooling them
// lets parallel compile workers reuse scratch through the per-P
// sync.Pool caches instead of contending on the allocator. Per-window
// scratch (ws <= 32) lives in fixed stack buffers instead.

// slicePool hands out reusable slices of T. get and put exchange the
// *[]T itself, so a steady-state get/put pair allocates nothing.
type slicePool[T any] struct{ p sync.Pool }

// get returns a pooled buffer of length n with unspecified contents;
// callers overwrite every element they read.
func (sp *slicePool[T]) get(n int) *[]T {
	if b, ok := sp.p.Get().(*[]T); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	s := make([]T, n)
	return &s
}

// put returns a buffer obtained from get.
func (sp *slicePool[T]) put(b *[]T) { sp.p.Put(b) }

var (
	floatPool slicePool[float64]
	int16Pool slicePool[int16]
	int32Pool slicePool[int32]
)
