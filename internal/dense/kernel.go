package dense

import (
	"fmt"
	"sync"
)

// GemmSharedKernel is a functional emulation of the paper's Fig 5 CUDA
// kernel: a grid of (⌈n/bs⌉)² thread blocks, each computing one bs×bs
// sub-matrix Csub of C by marching two bs-wide panels of A and B through
// a "shared memory" tile pair — load tile, synchronize, accumulate the
// tile product, synchronize, advance. Boundary blocks are padded with
// zeros exactly as a guarded CUDA kernel masks out-of-range threads.
// groups runs the grid's blocks across that many concurrent workers
// (the SM analog); the result is bit-identical for any worker count.
//
// It exists so the machine model in internal/gpusim is backed by a real,
// testable implementation of the algorithm it models: same tiling, same
// per-thread accumulation order, same G-style repetition semantics
// (repeating the product G·R times just recomputes C — verified in
// tests).
//
//lint:root hotalloc Fig 5 kernel; tile/Csub scratch is pooled, steady state must stay allocation-free
//lint:ignore deadexport the Fig 5 kernel itself, kept as the executable reference for the gpusim model and benchmarked by BenchmarkGemmSharedKernelBS16
func GemmSharedKernel(bs int, a, b, c *Matrix, groups int) error {
	if err := checkGemmShapes(a, b, c); err != nil {
		return err
	}
	if a.Rows != a.Cols || b.Rows != b.Cols {
		return fmt.Errorf("dense: the Fig 5 kernel multiplies square matrices, got %dx%d and %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	if bs < 1 || bs > 32 {
		return fmt.Errorf("dense: BS=%d out of the kernel's 1..32 range", bs)
	}
	if groups < 1 {
		return fmt.Errorf("dense: groups=%d must be >= 1", groups)
	}
	grid := (n + bs - 1) / bs

	// Each worker owns a strided set of blocks (the SM scheduler analog)
	// and its own shared-memory tiles.
	totalBlocks := grid * grid
	if groups > totalBlocks {
		groups = totalBlocks
	}
	var wg sync.WaitGroup
	for wkr := 0; wkr < groups; wkr++ {
		wg.Add(1)
		//lint:ignore hotalloc worker-spawn closure: created once per worker per call, not per block; the per-block loop inside is allocation-free
		go func(wkr int) {
			defer wg.Done()
			ap, bp, cp := getF64(bs*bs), getF64(bs*bs), getF64(bs*bs)
			defer putF64(ap)
			defer putF64(bp)
			defer putF64(cp)
			as, bsm, csub := *ap, *bp, *cp // As[ty][tx], Bs, Csub
			for blk := wkr; blk < totalBlocks; blk += groups {
				by, bx := blk/grid, blk%grid
				runBlock(n, bs, by, bx, a, b, c, as, bsm, csub)
			}
		}(wkr)
	}
	wg.Wait()
	return nil
}

// runBlock computes one Csub tile: the body of Fig 5 lines 1-20. The
// scratch tiles as/bsm/csub are worker-owned pooled buffers; as and bsm
// are fully rewritten on each tile load, csub accumulates and so must
// be zeroed here.
func runBlock(n, bs, by, bx int, a, b, c *Matrix, as, bsm, csub []float64) {
	// Csub accumulator, one register per (ty, tx) thread.
	for i := range csub {
		csub[i] = 0
	}
	tiles := (n + bs - 1) / bs
	for t := 0; t < tiles; t++ {
		// "Load the two corresponding square matrices from global memory
		// to shared memory" — guarded loads pad out-of-range elements
		// with zero.
		for ty := 0; ty < bs; ty++ {
			for tx := 0; tx < bs; tx++ {
				ai, aj := by*bs+ty, t*bs+tx
				if ai < n && aj < n {
					as[ty*bs+tx] = a.Data[ai*n+aj]
				} else {
					as[ty*bs+tx] = 0
				}
				bi, bj := t*bs+ty, bx*bs+tx
				if bi < n && bj < n {
					bsm[ty*bs+tx] = b.Data[bi*n+bj]
				} else {
					bsm[ty*bs+tx] = 0
				}
			}
		}
		// __syncthreads(); then the unrolled k loop: Csub += As[ty][k] ·
		// Bs[k][tx]; then __syncthreads() before the next tile.
		for ty := 0; ty < bs; ty++ {
			for k := 0; k < bs; k++ {
				av := as[ty*bs+k]
				if av == 0 {
					continue
				}
				for tx := 0; tx < bs; tx++ {
					csub[ty*bs+tx] += av * bsm[k*bs+tx]
				}
			}
		}
	}
	// "Each thread writes the result to global memory" (Fig 5 line 19:
	// the kernel accumulates into C with +=).
	for ty := 0; ty < bs; ty++ {
		ci := by*bs + ty
		if ci >= n {
			continue
		}
		for tx := 0; tx < bs; tx++ {
			cj := bx*bs + tx
			if cj >= n {
				continue
			}
			c.Data[ci*n+cj] += csub[ty*bs+tx]
		}
	}
}
