package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"
	"unsafe"

	"sushi/internal/infer"
	"sushi/internal/nn"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// The forward workload's fixed input: one seeded 224x224 RGB int8 image
// through weights from a seeded store. int8 kernel time does not depend
// on the data, so the image stays fixed and every output can be checked
// against a digest stored with the benchmark.
const (
	fwdImageSeed  = 99
	fwdWeightSeed = 1
	fwdBatch      = 4
)

// forwardDigests maps each MobileNetV3 frontier SubNet to the sha256 of
// its logits on the fixed image, taken from infer.ForwardReference (the
// unblocked oracle) with -write-digests.
//
//go:embed forward_digests.json
var forwardDigestsJSON []byte

func storedDigests() (map[string]string, error) {
	var ds map[string]string
	if err := json.Unmarshal(forwardDigestsJSON, &ds); err != nil {
		return nil, fmt.Errorf("forward digests: %w", err)
	}
	return ds, nil
}

// fwdBench is the forward path: the calibration sweep's inner loop, a
// warm engine sweeping the frontier SubNets at batch 1 or batch 4.
type fwdBench struct {
	frontier []*supernet.SubNet
	eng      *infer.Engine
	in       *tensor.Int8
	out      tensor.Int8
	digests  map[string]string
	// firstMs is each SubNet's first batch-1 forward, which prepares
	// its weights and sizes the arena.
	firstMs []float64
	b1, b4  [][]float64 // per SubNet, ms per call
}

func newFwdBench(rep *report, super *supernet.SuperNet, frontier []*supernet.SubNet) (*fwdBench, error) {
	digests, err := storedDigests()
	if err != nil {
		return nil, err
	}
	b := &fwdBench{
		frontier: frontier,
		eng:      infer.NewEngine(infer.NewWeightStore(super, fwdWeightSeed)),
		in:       tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, fwdImageSeed),
		digests:  digests,
		b1:       make([][]float64, len(frontier)),
		b4:       make([][]float64, len(frontier)),
	}
	b.eng.SetWorkers(nproc())
	for _, sn := range frontier {
		if digests[sn.Name] == "" {
			b.close()
			return nil, fmt.Errorf("no stored digest for SubNet %s", sn.Name)
		}
		ms, err := b.forward(rep, sn, 1)
		if err != nil {
			b.close()
			return nil, err
		}
		b.firstMs = append(b.firstMs, ms)
	}
	return b, nil
}

func (b *fwdBench) close() { b.eng.Close() }

// digest is the sha256 of an int8 slice's bytes.
func digest(xs []int8) string {
	sum := sha256.Sum256(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)))
	return hex.EncodeToString(sum[:])
}

// forward runs one batch of n copies of the image through sn, checks
// every image's logits against the stored digest and returns the wall
// time in milliseconds.
func (b *fwdBench) forward(rep *report, sn *supernet.SubNet, n int) (float64, error) {
	t0 := time.Now()
	err := b.eng.ForwardBatchInto(sn, b.in, n, &b.out)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return 0, err
	}
	rep.attempted += int64(n)
	per := len(b.out.Data) / n
	for k := 0; k < n; k++ {
		got := digest(b.out.Data[k*per : (k+1)*per])
		if !rep.check(got == b.digests[sn.Name], "forward: SubNet %s batch %d image %d digest %s, stored %s",
			sn.Name, n, k, got, b.digests[sn.Name]) {
			rep.failed++
		}
	}
	return ms, nil
}

// sweep forwards every frontier SubNet once at batch n (1 or fwdBatch).
func (b *fwdBench) sweep(rep *report, n int) error {
	times := b.b1
	if n == fwdBatch {
		times = b.b4
	}
	for i, sn := range b.frontier {
		ms, err := b.forward(rep, sn, n)
		if err != nil {
			return err
		}
		times[i] = append(times[i], ms)
	}
	return nil
}

// imagesPerSecond is the frontier's throughput: images in one pass over
// every SubNet divided by the sum of each SubNet's quiet time.
func imagesPerSecond(times [][]float64, batch int) float64 {
	total := 0.0
	for _, ts := range times {
		total += quietTime(ts)
	}
	return float64(batch*len(times)) / (total / 1e3)
}

func (b *fwdBench) finish(rep *report) {
	rep.set("fwd_b1_img_per_s", "1/s", imagesPerSecond(b.b1, 1))
	rep.set("fwd_b4_img_per_s", "1/s", imagesPerSecond(b.b4, fwdBatch))
	fmt.Printf("forward: %d SubNets, %d samples each at batch 1 and %d at batch %d, %.3f img/s at batch 1, %.3f img/s at batch %d\n",
		len(b.frontier), len(b.b1[0]), len(b.b4[0]), fwdBatch, imagesPerSecond(b.b1, 1), imagesPerSecond(b.b4, fwdBatch), fwdBatch)
}

// convShape is one convolution geometry of the frontier at batch 1.
type convShape struct {
	C, K, R, H, W, Stride, Pad int
	Depthwise                  bool
}

// name is the shape's metric suffix: c<C>x<K> or dw<C>, kernel,
// stride and input height.
func (s convShape) name() string {
	if s.Depthwise {
		return fmt.Sprintf("dw%dk%ds%dh%d", s.C, s.R, s.Stride, s.H)
	}
	return fmt.Sprintf("c%dx%dk%ds%dh%d", s.C, s.K, s.R, s.Stride, s.H)
}

func (s convShape) params() tensor.ConvParams {
	p := tensor.ConvParams{StrideH: s.Stride, StrideW: s.Stride, PadH: s.Pad, PadW: s.Pad, Groups: 1}
	if s.Depthwise {
		p.Groups = s.C
	}
	return p
}

func (s convShape) weightShape() tensor.Shape {
	if s.Depthwise {
		return tensor.Shape{N: s.K, C: 1, H: s.R, W: s.R}
	}
	return tensor.Shape{N: s.K, C: s.C, H: s.R, W: s.R}
}

// macs is the multiply-accumulate count of one batch-1 call.
func (s convShape) macs() float64 {
	w := s.weightShape()
	oh := tensor.OutDim(s.H, s.R, s.Stride, s.Pad)
	ow := tensor.OutDim(s.W, s.R, s.Stride, s.Pad)
	return float64(s.K * oh * ow * w.C * w.H * w.W)
}

// bytes is the traffic one batch-1 call moves, computed from tensor
// sizes: the int8 input and weights read and the int32 output written.
func (s convShape) bytes() float64 {
	w := s.weightShape()
	oh := tensor.OutDim(s.H, s.R, s.Stride, s.Pad)
	ow := tensor.OutDim(s.W, s.R, s.Stride, s.Pad)
	return float64(s.C*s.H*s.W + w.Elems() + 4*s.K*oh*ow)
}

// layerShape is the convolution geometry of a model layer (ok false for
// layers that are not convolutions).
func layerShape(l *nn.Layer) (convShape, bool) {
	if l.Kind != nn.Conv && l.Kind != nn.DepthwiseConv {
		return convShape{}, false
	}
	return convShape{C: l.C, K: l.K, R: l.R, H: l.InH, W: l.InW, Stride: l.Stride, Pad: l.Pad,
		Depthwise: l.Kind == nn.DepthwiseConv}, true
}

// convUses counts each convolution shape's calls in one batch-1 pass
// over the frontier, and lists every SubNet's shapes.
func convUses(frontier []*supernet.SubNet) (map[convShape]int, [][]convShape) {
	uses := map[convShape]int{}
	per := make([][]convShape, len(frontier))
	for i, sn := range frontier {
		for li := range sn.Model.Layers {
			if s, ok := layerShape(&sn.Model.Layers[li]); ok {
				uses[s]++
				per[i] = append(per[i], s)
			}
		}
	}
	return uses, per
}

// convTimer times tensor.Conv2DBlockedInto calls on seeded operands.
type convTimer struct {
	pool *tensor.Pool
	sc   tensor.Scratch
	out  tensor.Int32
}

// time is the quiet time of one call in milliseconds, over at least 3
// calls and at least 20 ms after one warm-up call.
func (ct *convTimer) time(s convShape) (float64, error) {
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: s.C, H: s.H, W: s.W}, 1)
	w := tensor.RandomInt8(s.weightShape(), 2)
	call := func() (float64, error) {
		t0 := time.Now()
		err := tensor.Conv2DBlockedInto(&ct.out, in, w, 0, s.params(), nil, &ct.sc, ct.pool)
		return float64(time.Since(t0)) / 1e6, err
	}
	if _, err := call(); err != nil {
		return 0, fmt.Errorf("conv %s: %w", s.name(), err)
	}
	var ts []float64
	spent := 0.0
	for len(ts) < 3 || spent < 20 {
		ms, err := call()
		if err != nil {
			return 0, err
		}
		ts = append(ts, ms)
		spent += ms
	}
	return quietTime(ts), nil
}

// topConvShapes are the 16 frontier conv shapes with the largest share
// of batch-1 forward time (time per call x calls per frontier pass), as
// ranked by -rank-shapes when the benchmark was written. They are fixed
// so the per-shape metric names stay the same from run to run.
var topConvShapes = []convShape{
	{C: 144, K: 144, R: 7, H: 56, W: 56, Stride: 1, Pad: 3, Depthwise: true},  // dw144k7s1h56
	{C: 144, K: 144, R: 5, H: 56, W: 56, Stride: 1, Pad: 2, Depthwise: true},  // dw144k5s1h56
	{C: 112, K: 672, R: 1, H: 14, W: 14, Stride: 1, Pad: 0, Depthwise: false}, // c112x672k1s1h14
	{C: 24, K: 144, R: 1, H: 56, W: 56, Stride: 1, Pad: 0, Depthwise: false},  // c24x144k1s1h56
	{C: 144, K: 24, R: 1, H: 56, W: 56, Stride: 1, Pad: 0, Depthwise: false},  // c144x24k1s1h56
	{C: 672, K: 112, R: 1, H: 14, W: 14, Stride: 1, Pad: 0, Depthwise: false}, // c672x112k1s1h14
	{C: 40, K: 240, R: 1, H: 28, W: 28, Stride: 1, Pad: 0, Depthwise: false},  // c40x240k1s1h28
	{C: 160, K: 960, R: 1, H: 7, W: 7, Stride: 1, Pad: 0, Depthwise: false},   // c160x960k1s1h7
	{C: 96, K: 24, R: 1, H: 56, W: 56, Stride: 1, Pad: 0, Depthwise: false},   // c96x24k1s1h56
	{C: 24, K: 96, R: 1, H: 56, W: 56, Stride: 1, Pad: 0, Depthwise: false},   // c24x96k1s1h56
	{C: 112, K: 448, R: 1, H: 14, W: 14, Stride: 1, Pad: 0, Depthwise: false}, // c112x448k1s1h14
	{C: 240, K: 240, R: 5, H: 28, W: 28, Stride: 1, Pad: 2, Depthwise: true},  // dw240k5s1h28
	{C: 80, K: 480, R: 1, H: 14, W: 14, Stride: 1, Pad: 0, Depthwise: false},  // c80x480k1s1h14
	{C: 240, K: 240, R: 7, H: 28, W: 28, Stride: 1, Pad: 3, Depthwise: true},  // dw240k7s1h28
	{C: 240, K: 40, R: 1, H: 28, W: 28, Stride: 1, Pad: 0, Depthwise: false},  // c240x40k1s1h28
	{C: 3, K: 16, R: 3, H: 224, W: 224, Stride: 2, Pad: 1, Depthwise: false},  // c3x16k3s2h224
}

// rankShapes prints every frontier conv shape ranked by its share of
// batch-1 forward time.
func rankShapes() error {
	_, fr, err := mobileNetFrontier()
	if err != nil {
		return err
	}
	uses, _ := convUses(fr)
	ct := &convTimer{pool: tensor.NewPool(nproc())}
	defer ct.pool.Close()
	type ranked struct {
		s     convShape
		share float64
	}
	var rs []ranked
	total := 0.0
	for s, n := range uses {
		ms, err := ct.time(s)
		if err != nil {
			return err
		}
		rs = append(rs, ranked{s, ms * float64(n)})
		total += ms * float64(n)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].share > rs[j].share })
	for _, r := range rs {
		fmt.Printf("{C: %d, K: %d, R: %d, H: %d, W: %d, Stride: %d, Pad: %d, Depthwise: %v}, // %s %.1f%%\n",
			r.s.C, r.s.K, r.s.R, r.s.H, r.s.W, r.s.Stride, r.s.Pad, r.s.Depthwise, r.s.name(), 100*r.share/total)
	}
	return nil
}

// writeDigests prints the forward digests file from ForwardReference.
func writeDigests() error {
	super, fr, err := mobileNetFrontier()
	if err != nil {
		return err
	}
	eng := infer.NewEngine(infer.NewWeightStore(super, fwdWeightSeed))
	defer eng.Close()
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, fwdImageSeed)
	ds := map[string]string{}
	for _, sn := range fr {
		out, err := eng.ForwardReference(sn, in)
		if err != nil {
			return err
		}
		ds[sn.Name] = digest(out.Data)
	}
	b, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakSink keeps the peak loop's result alive.
var peakSink int32

// peakLoop runs n rounds of 64 int8 multiply-accumulates into eight
// register-resident int32 accumulators and returns their sum.
func peakLoop(a, b [8]int8, n int) int32 {
	a0, a1, a2, a3, a4, a5, a6, a7 := int32(a[0]), int32(a[1]), int32(a[2]), int32(a[3]), int32(a[4]), int32(a[5]), int32(a[6]), int32(a[7])
	b0, b1, b2, b3, b4, b5, b6, b7 := int32(b[0]), int32(b[1]), int32(b[2]), int32(b[3]), int32(b[4]), int32(b[5]), int32(b[6]), int32(b[7])
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	for i := 0; i < n; i++ {
		s0 += a0*b0 + a1*b1 + a2*b2 + a3*b3 + a4*b4 + a5*b5 + a6*b6 + a7*b7
		s1 += a0*b1 + a1*b2 + a2*b3 + a3*b4 + a4*b5 + a5*b6 + a6*b7 + a7*b0
		s2 += a0*b2 + a1*b3 + a2*b4 + a3*b5 + a4*b6 + a5*b7 + a6*b0 + a7*b1
		s3 += a0*b3 + a1*b4 + a2*b5 + a3*b6 + a4*b7 + a5*b0 + a6*b1 + a7*b2
		s4 += a0*b4 + a1*b5 + a2*b6 + a3*b7 + a4*b0 + a5*b1 + a6*b2 + a7*b3
		s5 += a0*b5 + a1*b6 + a2*b7 + a3*b0 + a4*b1 + a5*b2 + a6*b3 + a7*b4
		s6 += a0*b6 + a1*b7 + a2*b0 + a3*b1 + a4*b2 + a5*b3 + a6*b4 + a7*b5
		s7 += a0*b7 + a1*b0 + a2*b1 + a3*b2 + a4*b3 + a5*b4 + a6*b5 + a7*b6
		a0, b7 = a0^1, b7^1
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// peakGMACs measures the machine's int8 MAC rate on nproc()
// goroutines running peakLoop, best of three.
func peakGMACs() float64 {
	const n = 4 << 20
	workers := nproc()
	best := 0.0
	for r := 0; r < 3; r++ {
		sums := make([]int32, workers)
		done := make(chan struct{})
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			go func(w int) {
				sums[w] = peakLoop([8]int8{1, 2, 3, 4, 5, 6, 7, int8(w)}, [8]int8{7, 6, 5, 4, 3, 2, 1, 0}, n)
				done <- struct{}{}
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		el := time.Since(t0).Seconds()
		for _, s := range sums {
			peakSink += s
		}
		if g := float64(64*n*workers) / el / 1e9; g > best {
			best = g
		}
	}
	return best
}

// traceForward is the traced pass of the forward path: per-SubNet
// forward times, then the conv kernels timed directly through
// tensor.Conv2DBlockedInto, and the machine's int8 MAC peak.
func traceForward(rep *report, super *supernet.SuperNet, frontier []*supernet.SubNet) error {
	fb, err := newFwdBench(rep, super, frontier)
	if err != nil {
		return err
	}
	defer fb.close()
	if err := fb.sweep(rep, 1); err != nil {
		return err
	}
	if err := fb.sweep(rep, fwdBatch); err != nil {
		return err
	}
	uses, per := convUses(frontier)
	ct := &convTimer{pool: tensor.NewPool(nproc())}
	defer ct.pool.Close()
	convMs := map[convShape]float64{}
	for s := range uses {
		if convMs[s], err = ct.time(s); err != nil {
			return err
		}
	}
	var prepare, self, b4ms float64
	for i, sn := range frontier {
		fwd := quietTime(fb.b1[i])
		rep.set("infer.forward_ms."+sn.Name, "ms", fwd)
		prepare += fb.firstMs[i] - fwd
		conv := 0.0
		for _, s := range per[i] {
			conv += convMs[s]
		}
		self += float64(selfNs(int64(fwd*1e6), int64(conv*1e6))) / 1e6
		b4ms += quietTime(fb.b4[i])
	}
	n := float64(len(frontier))
	rep.set("infer.forward_b4_ms", "ms", b4ms/n)
	rep.set("infer.self_ms", "ms", self/n)
	rep.set("infer.prepare_ms", "ms", prepare/n)
	rep.set("trace.fwd_b1_img_per_s", "1/s", imagesPerSecond(fb.b1, 1))
	for _, s := range topConvShapes {
		ms, ok := convMs[s]
		if !rep.check(ok, "forward: conv shape %s is no longer in the frontier", s.name()) {
			continue
		}
		rep.set("tensor.conv_gmacs."+s.name(), "GMAC/s", s.macs()/(ms/1e3)/1e9)
		rep.set("tensor.conv_mmacs."+s.name(), "MMAC", s.macs()/1e6)
		rep.set("tensor.conv_mb."+s.name(), "MB", s.bytes()/1e6)
	}
	rep.set("tensor.peak_gmacs", "GMAC/s", peakGMACs())
	return nil
}
