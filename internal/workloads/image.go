package workloads

import (
	"fmt"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// imageDim returns the square image side for a scale.
func imageDim(s Scale) int {
	if s == ScaleSmall {
		return 64
	}
	return 384
}

// newImage allocates a Java int[] of dim*dim ARGB pixels filled with a
// deterministic gradient-plus-noise pattern.
func newImage(env *jni.Env, dim int, seed uint32) (*vm.Object, error) {
	return newArrayFrom(env, vm.KindInt, seeded("image", dim, seed, imageBytes))
}

// imageBytes renders the gradient-plus-noise pattern of a dim*dim image.
func imageBytes(dim int, seed uint32) []byte {
	rng := xorshift32(seed)
	data := make([]byte, dim*dim*4)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			r := byte((x*255/dim + int(rng.byteN(32))) & 0xFF)
			g := byte((y*255/dim + int(rng.byteN(32))) & 0xFF)
			b := byte(((x + y) * 255 / (2 * dim)) & 0xFF)
			i := (y*dim + x) * 4
			data[i], data[i+1], data[i+2], data[i+3] = b, g, r, 0xFF
		}
	}
	return data
}

// PDFRenderer stands in for GB6 "PDF Renderer": rasterizing vector path
// commands (lines and filled rectangles) into a page buffer held in a Java
// int[]. INTENSIVE pattern: every pixel write goes through the raw pointer
// with a checked store — the access behaviour the paper identifies as
// hostile to MTE+Sync.
type PDFRenderer struct {
	dim      int
	commands int
	page     *vm.Object
	plotted  int
}

// NewPDFRenderer builds the workload at the given scale.
func NewPDFRenderer(s Scale) *PDFRenderer {
	dim := imageDim(s)
	cmds := 400
	if s == ScaleSmall {
		cmds = 40
	}
	return &PDFRenderer{dim: dim, commands: cmds}
}

// Name implements Workload.
func (w *PDFRenderer) Name() string { return "PDF Renderer" }

// Pattern implements Workload.
func (w *PDFRenderer) Pattern() Pattern { return Intensive }

// Setup implements Workload.
func (w *PDFRenderer) Setup(env *jni.Env) error {
	page, err := env.NewArray(vm.KindInt, w.dim*w.dim)
	if err != nil {
		return err
	}
	w.page = page
	return nil
}

// Run implements Workload: rasterize synthetic path commands.
func (w *PDFRenderer) Run(env *jni.Env) error {
	dim := w.dim
	rng := xorshift32(0x9D0F)
	return withCritical(env, w.page, func(p mte.Ptr) error {
		plotted := 0
		put := func(x, y int, color int32) {
			if x >= 0 && x < dim && y >= 0 && y < dim {
				env.StoreInt(p.Add(int64((y*dim+x)*4)), color) // checked store
				plotted++
			}
		}
		for c := 0; c < w.commands; c++ {
			x0, y0 := int(rng.next())%dim, int(rng.next())%dim
			x1, y1 := int(rng.next())%dim, int(rng.next())%dim
			color := int32(rng.next())
			if c%3 == 0 {
				// Filled rectangle.
				if x1 < x0 {
					x0, x1 = x1, x0
				}
				if y1 < y0 {
					y0, y1 = y1, y0
				}
				if x1-x0 > dim/4 {
					x1 = x0 + dim/4
				}
				if y1-y0 > dim/4 {
					y1 = y0 + dim/4
				}
				for y := y0; y <= y1; y++ {
					for x := x0; x <= x1; x++ {
						put(x, y, color)
					}
				}
				continue
			}
			// Bresenham line.
			dx, dy := abs(x1-x0), -abs(y1-y0)
			sx, sy := 1, 1
			if x0 > x1 {
				sx = -1
			}
			if y0 > y1 {
				sy = -1
			}
			errAcc := dx + dy
			x, y := x0, y0
			for {
				put(x, y, color)
				if x == x1 && y == y1 {
					break
				}
				e2 := 2 * errAcc
				if e2 >= dy {
					errAcc += dy
					x += sx
				}
				if e2 <= dx {
					errAcc += dx
					y += sy
				}
			}
		}
		w.plotted = plotted
		return nil
	})
}

// Verify implements Workload.
func (w *PDFRenderer) Verify() error {
	if w.plotted < w.commands {
		return fmt.Errorf("PDF Renderer: only %d pixels plotted", w.plotted)
	}
	return nil
}

// abs returns |x|.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// PhotoLibrary stands in for GB6 "Photo Library": thumbnailing (box
// downscale) plus luminance histogramming of an image. Bulk pattern.
type PhotoLibrary struct {
	dim   int
	img   *vm.Object
	thumb *vm.Object
	mass  int64
}

// NewPhotoLibrary builds the workload at the given scale.
func NewPhotoLibrary(s Scale) *PhotoLibrary { return &PhotoLibrary{dim: imageDim(s)} }

// Name implements Workload.
func (w *PhotoLibrary) Name() string { return "Photo Library" }

// Pattern implements Workload.
func (w *PhotoLibrary) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *PhotoLibrary) Setup(env *jni.Env) error {
	img, err := newImage(env, w.dim, 0x9107)
	if err != nil {
		return err
	}
	thumb, err := env.NewArray(vm.KindInt, (w.dim/4)*(w.dim/4))
	if err != nil {
		return err
	}
	w.img, w.thumb = img, thumb
	return nil
}

// Run implements Workload.
func (w *PhotoLibrary) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	dim, td := w.dim, w.dim/4
	thumb := make([]int32, td*td)
	var hist [256]int64
	for ty := 0; ty < td; ty++ {
		for tx := 0; tx < td; tx++ {
			var rSum, gSum, bSum int
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					px := uint32(src[(ty*4+dy)*dim+tx*4+dx])
					bSum += int(px & 0xFF)
					gSum += int(px >> 8 & 0xFF)
					rSum += int(px >> 16 & 0xFF)
				}
			}
			r, g, b := rSum/16, gSum/16, bSum/16
			thumb[ty*td+tx] = int32(uint32(0xFF)<<24 | uint32(r)<<16 | uint32(g)<<8 | uint32(b))
			lum := (299*r + 587*g + 114*b) / 1000
			hist[lum]++
		}
	}
	var mass int64
	for v, n := range hist {
		mass += int64(v) * n
	}
	w.mass = mass
	return publishInts(env, w.thumb, thumb)
}

// Verify implements Workload.
func (w *PhotoLibrary) Verify() error {
	if w.mass <= 0 {
		return fmt.Errorf("Photo Library: empty histogram")
	}
	if bits, _ := w.thumb.GetElem(0); bits == 0 {
		return fmt.Errorf("Photo Library: thumbnail not written back")
	}
	return nil
}

// ObjectDetection stands in for GB6 "Object Detection": a small convolution
// stack (3x3 edge kernel + 2x2 max-pool) followed by region scoring. Bulk
// pattern.
type ObjectDetection struct {
	dim   int
	img   *vm.Object
	score int64
}

// NewObjectDetection builds the workload at the given scale.
func NewObjectDetection(s Scale) *ObjectDetection { return &ObjectDetection{dim: imageDim(s)} }

// Name implements Workload.
func (w *ObjectDetection) Name() string { return "Object Detection" }

// Pattern implements Workload.
func (w *ObjectDetection) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *ObjectDetection) Setup(env *jni.Env) error {
	img, err := newImage(env, w.dim, 0x0B7EC7)
	w.img = img
	return err
}

// Run implements Workload.
func (w *ObjectDetection) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	dim := w.dim
	lum := make([]int32, dim*dim)
	for i, px := range src {
		u := uint32(px)
		lum[i] = int32((299*(u>>16&0xFF) + 587*(u>>8&0xFF) + 114*(u&0xFF)) / 1000)
	}
	kernel := [9]int32{-1, -1, -1, -1, 8, -1, -1, -1, -1}
	conv := make([]int32, dim*dim)
	for y := 1; y < dim-1; y++ {
		for x := 1; x < dim-1; x++ {
			var acc int32
			k := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					acc += kernel[k] * lum[(y+dy)*dim+x+dx]
					k++
				}
			}
			if acc < 0 {
				acc = -acc
			}
			conv[y*dim+x] = acc
		}
	}
	var score int64
	for y := 0; y+1 < dim; y += 2 {
		for x := 0; x+1 < dim; x += 2 {
			m := conv[y*dim+x]
			if v := conv[y*dim+x+1]; v > m {
				m = v
			}
			if v := conv[(y+1)*dim+x]; v > m {
				m = v
			}
			if v := conv[(y+1)*dim+x+1]; v > m {
				m = v
			}
			score += int64(m)
		}
	}
	w.score = score
	return nil
}

// Verify implements Workload.
func (w *ObjectDetection) Verify() error {
	if w.score <= 0 {
		return fmt.Errorf("Object Detection: zero edge response")
	}
	return nil
}

// BackgroundBlur stands in for GB6 "Background Blur": a separable box blur
// over the image with the result written back through JNI. Bulk pattern.
type BackgroundBlur struct {
	dim int
	img *vm.Object
	sum int64
}

// NewBackgroundBlur builds the workload at the given scale.
func NewBackgroundBlur(s Scale) *BackgroundBlur { return &BackgroundBlur{dim: imageDim(s)} }

// Name implements Workload.
func (w *BackgroundBlur) Name() string { return "Background Blur" }

// Pattern implements Workload.
func (w *BackgroundBlur) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *BackgroundBlur) Setup(env *jni.Env) error {
	img, err := newImage(env, w.dim, 0xB10B)
	w.img = img
	return err
}

// Run implements Workload.
func (w *BackgroundBlur) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	dim, radius := w.dim, 3
	tmp := make([]int32, len(src))
	blurPass := func(in, out []int32, stride, lineLen, lines int) {
		for l := 0; l < lines; l++ {
			base := l
			if stride == 1 {
				base = l * lineLen
			}
			var rAcc, gAcc, bAcc, cnt int
			idx := func(i int) int {
				if stride == 1 {
					return base + i
				}
				return base + i*dim
			}
			for i := 0; i < lineLen; i++ {
				add := i + radius
				if add < lineLen {
					u := uint32(in[idx(add)])
					bAcc += int(u & 0xFF)
					gAcc += int(u >> 8 & 0xFF)
					rAcc += int(u >> 16 & 0xFF)
					cnt++
				}
				sub := i - radius - 1
				if sub >= 0 {
					u := uint32(in[idx(sub)])
					bAcc -= int(u & 0xFF)
					gAcc -= int(u >> 8 & 0xFF)
					rAcc -= int(u >> 16 & 0xFF)
					cnt--
				}
				if i == 0 {
					for j := 0; j <= radius && j < lineLen; j++ {
						if j == radius {
							break
						}
						u := uint32(in[idx(j)])
						bAcc += int(u & 0xFF)
						gAcc += int(u >> 8 & 0xFF)
						rAcc += int(u >> 16 & 0xFF)
						cnt++
					}
				}
				if cnt == 0 {
					cnt = 1
				}
				out[idx(i)] = int32(uint32(0xFF)<<24 | uint32(rAcc/cnt)<<16 | uint32(gAcc/cnt)<<8 | uint32(bAcc/cnt))
			}
		}
	}
	blurPass(src, tmp, 1, dim, dim) // horizontal
	if err := checkpoint(env); err != nil {
		return err
	}
	blurPass(tmp, src, dim, dim, dim) // vertical
	var sum int64
	for _, px := range src {
		sum += int64(uint32(px) & 0xFF)
	}
	w.sum = sum
	return publishInts(env, w.img, src)
}

// Verify implements Workload.
func (w *BackgroundBlur) Verify() error {
	if w.sum <= 0 {
		return fmt.Errorf("Background Blur: black output")
	}
	return nil
}

// HorizonDetection stands in for GB6 "Horizon Detection": gradient
// estimation plus a line-angle vote to find the dominant horizon. Bulk
// pattern.
type HorizonDetection struct {
	dim   int
	img   *vm.Object
	angle int
	votes int64
}

// NewHorizonDetection builds the workload at the given scale.
func NewHorizonDetection(s Scale) *HorizonDetection { return &HorizonDetection{dim: imageDim(s)} }

// Name implements Workload.
func (w *HorizonDetection) Name() string { return "Horizon Detection" }

// Pattern implements Workload.
func (w *HorizonDetection) Pattern() Pattern { return Bulk }

// Setup implements Workload: a sky/ground split gives a real horizon.
func (w *HorizonDetection) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindInt, seeded("horizon", w.dim, 0, horizonBytes))
	w.img = arr
	return err
}

// horizonBytes renders a dim*dim sky over ground with a slightly tilted
// horizon. It draws no random numbers; seed is unused.
func horizonBytes(dim int, _ uint32) []byte {
	data := make([]byte, dim*dim*4)
	for y := 0; y < dim; y++ {
		for x := 0; x < dim; x++ {
			i := (y*dim + x) * 4
			if y < dim/2+x/8 { // slightly tilted horizon
				data[i], data[i+1], data[i+2], data[i+3] = 0xF0, 0xB0, 0x40, 0xFF // sky
			} else {
				data[i], data[i+1], data[i+2], data[i+3] = 0x20, 0x60, 0x30, 0xFF // ground
			}
		}
	}
	return data
}

// Run implements Workload.
func (w *HorizonDetection) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	dim := w.dim
	lum := func(i int) int32 {
		u := uint32(src[i])
		return int32((299*(u>>16&0xFF) + 587*(u>>8&0xFF) + 114*(u&0xFF)) / 1000)
	}
	var votes [32]int64
	for y := 1; y < dim-1; y++ {
		for x := 1; x < dim-1; x++ {
			gx := lum(y*dim+x+1) - lum(y*dim+x-1)
			gy := lum((y+1)*dim+x) - lum((y-1)*dim+x)
			mag := gx*gx + gy*gy
			if mag < 400 {
				continue
			}
			// Quantized angle bucket from the gradient direction.
			bucket := 0
			if gy != 0 {
				bucket = int((int64(gx)*8/int64(absi32(gy)) + 16) % 32)
				if bucket < 0 {
					bucket += 32
				}
			}
			votes[bucket] += int64(mag)
		}
	}
	best, bestV := 0, int64(0)
	var total int64
	for b, v := range votes {
		total += v
		if v > bestV {
			best, bestV = b, v
		}
	}
	w.angle, w.votes = best, total
	return nil
}

// absi32 returns |x| for int32.
func absi32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Verify implements Workload.
func (w *HorizonDetection) Verify() error {
	if w.votes <= 0 {
		return fmt.Errorf("Horizon Detection: no gradient votes")
	}
	return nil
}

// ObjectRemover stands in for GB6 "Object Remover": masking a region and
// inpainting it by iterative neighbour averaging. Bulk pattern.
type ObjectRemover struct {
	dim      int
	img      *vm.Object
	residual int64
}

// NewObjectRemover builds the workload at the given scale.
func NewObjectRemover(s Scale) *ObjectRemover { return &ObjectRemover{dim: imageDim(s)} }

// Name implements Workload.
func (w *ObjectRemover) Name() string { return "Object Remover" }

// Pattern implements Workload.
func (w *ObjectRemover) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *ObjectRemover) Setup(env *jni.Env) error {
	img, err := newImage(env, w.dim, 0x0B0E)
	w.img = img
	return err
}

// Run implements Workload.
func (w *ObjectRemover) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	dim := w.dim
	// Mask the central quarter.
	x0, x1 := dim/4, dim/2
	y0, y1 := dim/4, dim/2
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			src[y*dim+x] = 0
		}
	}
	// Jacobi inpainting iterations.
	channel := func(px int32, sh uint) int32 { return int32(uint32(px) >> sh & 0xFF) }
	for iter := 0; iter < 8; iter++ {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				var r, g, b int32
				for _, d := range [4]int{-1, 1, -dim, dim} {
					n := src[y*dim+x+d]
					b += channel(n, 0)
					g += channel(n, 8)
					r += channel(n, 16)
				}
				src[y*dim+x] = int32(uint32(0xFF)<<24 | uint32(r/4)<<16 | uint32(g/4)<<8 | uint32(b/4))
			}
		}
	}
	var residual int64
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			residual += int64(channel(src[y*dim+x], 8))
		}
	}
	w.residual = residual
	return publishInts(env, w.img, src)
}

// Verify implements Workload: inpainting must have propagated colour.
func (w *ObjectRemover) Verify() error {
	if w.residual <= 0 {
		return fmt.Errorf("Object Remover: masked region still black")
	}
	return nil
}

// HDR stands in for GB6 "HDR": merging three synthetic exposures with a
// Reinhard-style tone map. Bulk pattern over three input arrays plus the
// output.
type HDR struct {
	dim    int
	exp    [3]*vm.Object
	out    *vm.Object
	maxLum int32
}

// NewHDR builds the workload at the given scale.
func NewHDR(s Scale) *HDR { return &HDR{dim: imageDim(s)} }

// Name implements Workload.
func (w *HDR) Name() string { return "HDR" }

// Pattern implements Workload.
func (w *HDR) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *HDR) Setup(env *jni.Env) error {
	for i := range w.exp {
		img, err := newImage(env, w.dim, 0x48D0+uint32(i))
		if err != nil {
			return err
		}
		w.exp[i] = img
	}
	out, err := env.NewArray(vm.KindInt, w.dim*w.dim)
	if err != nil {
		return err
	}
	w.out = out
	return nil
}

// Run implements Workload.
func (w *HDR) Run(env *jni.Env) error {
	var exps [3][]int32
	for i, img := range w.exp {
		vals, err := acquireInts(env, img)
		if err != nil {
			return err
		}
		exps[i] = vals
	}
	n := w.dim * w.dim
	out := make([]int32, n)
	var maxLum int32
	gains := [3]int32{1, 2, 4}
	for i := 0; i < n; i++ {
		var r, g, b int32
		for e := 0; e < 3; e++ {
			u := uint32(exps[e][i])
			b += int32(u&0xFF) * gains[e]
			g += int32(u>>8&0xFF) * gains[e]
			r += int32(u>>16&0xFF) * gains[e]
		}
		// Reinhard tone map x/(x+255) scaled back to 8 bits, in integers.
		tone := func(x int32) int32 { return x * 255 / (x + 255) }
		r, g, b = tone(r/3), tone(g/3), tone(b/3)
		lum := (299*r + 587*g + 114*b) / 1000
		if lum > maxLum {
			maxLum = lum
		}
		out[i] = int32(uint32(0xFF)<<24 | uint32(r)<<16 | uint32(g)<<8 | uint32(b))
	}
	w.maxLum = maxLum
	return publishInts(env, w.out, out)
}

// Verify implements Workload.
func (w *HDR) Verify() error {
	if w.maxLum <= 0 || w.maxLum > 255 {
		return fmt.Errorf("HDR: implausible max luminance %d", w.maxLum)
	}
	return nil
}

// PhotoFilter stands in for GB6 "Photo Filter": a colour LUT plus
// saturation boost applied per pixel natively. Bulk pattern.
type PhotoFilter struct {
	dim int
	img *vm.Object
	sum int64
}

// NewPhotoFilter builds the workload at the given scale.
func NewPhotoFilter(s Scale) *PhotoFilter { return &PhotoFilter{dim: imageDim(s)} }

// Name implements Workload.
func (w *PhotoFilter) Name() string { return "Photo Filter" }

// Pattern implements Workload.
func (w *PhotoFilter) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *PhotoFilter) Setup(env *jni.Env) error {
	img, err := newImage(env, w.dim, 0xF117E4)
	w.img = img
	return err
}

// Run implements Workload.
func (w *PhotoFilter) Run(env *jni.Env) error {
	src, err := acquireInts(env, w.img)
	if err != nil {
		return err
	}
	// Build an S-curve LUT.
	var lut [256]int32
	for i := range lut {
		x := int32(i)
		lut[i] = x + (x*(255-x))/256 - 32
		if lut[i] < 0 {
			lut[i] = 0
		}
		if lut[i] > 255 {
			lut[i] = 255
		}
	}
	var sum int64
	for i, px := range src {
		u := uint32(px)
		b, g, r := lut[u&0xFF], lut[u>>8&0xFF], lut[u>>16&0xFF]
		avg := (r + g + b) / 3
		sat := func(c int32) int32 {
			c = avg + (c-avg)*3/2
			if c < 0 {
				return 0
			}
			if c > 255 {
				return 255
			}
			return c
		}
		r, g, b = sat(r), sat(g), sat(b)
		src[i] = int32(uint32(0xFF)<<24 | uint32(r)<<16 | uint32(g)<<8 | uint32(b))
		sum += int64(r)
	}
	w.sum = sum
	return publishInts(env, w.img, src)
}

// Verify implements Workload.
func (w *PhotoFilter) Verify() error {
	if w.sum <= 0 {
		return fmt.Errorf("Photo Filter: black output")
	}
	return nil
}
