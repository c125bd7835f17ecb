package workloads

import (
	"fmt"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// HTML5Browser stands in for GB6 "HTML5 Browser": tokenizing a synthetic
// HTML document and building a tag histogram plus a DOM depth profile.
// Bulk pattern: the document crosses JNI once per run.
type HTML5Browser struct {
	size     int
	doc      *vm.Object
	maxDepth int
	tags     int
}

// NewHTML5Browser builds the workload at the given scale.
func NewHTML5Browser(s Scale) *HTML5Browser {
	size := 512 << 10
	if s == ScaleSmall {
		size = 8 << 10
	}
	return &HTML5Browser{size: size}
}

// Name implements Workload.
func (w *HTML5Browser) Name() string { return "HTML5 Browser" }

// Pattern implements Workload.
func (w *HTML5Browser) Pattern() Pattern { return Bulk }

// Setup implements Workload: nested markup.
func (w *HTML5Browser) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindByte, seeded("markup", w.size, 0x11735, markupBytes))
	w.doc = arr
	return err
}

// markupBytes generates size bytes of randomly nested tags, zero-padded.
func markupBytes(size int, seed uint32) []byte {
	tags := []string{"div", "span", "p", "ul", "li", "a", "h1", "table"}
	data := make([]byte, 0, size)
	rng := xorshift32(seed)
	var stack []string
	for len(data) < size-64 {
		if len(stack) > 0 && rng.next()%3 == 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			data = append(data, "</"...)
			data = append(data, top...)
			data = append(data, '>')
			continue
		}
		tag := tags[rng.next()%uint32(len(tags))]
		stack = append(stack, tag)
		data = append(data, '<')
		data = append(data, tag...)
		data = append(data, ">text"...)
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		data = append(data, "</"...)
		data = append(data, top...)
		data = append(data, '>')
	}
	padded := make([]byte, size)
	copy(padded, data)
	return padded
}

// Run implements Workload: a simple HTML tokenizer.
func (w *HTML5Browser) Run(env *jni.Env) error {
	data, err := acquireBytes(env, w.doc)
	if err != nil {
		return err
	}
	depth, maxDepth, tags := 0, 0, 0
	for i := 0; i < len(data); i++ {
		if data[i] != '<' {
			continue
		}
		tags++
		if i+1 < len(data) && data[i+1] == '/' {
			depth--
		} else {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		for i < len(data) && data[i] != '>' {
			i++
		}
	}
	w.maxDepth, w.tags = maxDepth, tags
	return nil
}

// Verify implements Workload.
func (w *HTML5Browser) Verify() error {
	if w.tags < 10 || w.maxDepth < 2 {
		return fmt.Errorf("HTML5 Browser: implausible parse (tags=%d depth=%d)", w.tags, w.maxDepth)
	}
	return nil
}

// Clang stands in for GB6 "Clang": lexing and brace/paren matching of a
// synthetic C-like source file. INTENSIVE pattern: the lexer reads the
// source byte by byte through the raw Java pointer, so under MTE+Sync every
// character costs a tag check — the behaviour the paper singles out.
type Clang struct {
	size      int
	src       *vm.Object
	tokens    int
	functions int
}

// NewClang builds the workload at the given scale.
func NewClang(s Scale) *Clang {
	size := 256 << 10
	if s == ScaleSmall {
		size = 8 << 10
	}
	return &Clang{size: size}
}

// Name implements Workload.
func (w *Clang) Name() string { return "Clang" }

// Pattern implements Workload.
func (w *Clang) Pattern() Pattern { return Intensive }

// Setup implements Workload: synthesized function definitions.
func (w *Clang) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindByte, seeded("source", w.size, 0xC1A46, sourceBytes))
	w.src = arr
	return err
}

// sourceBytes generates size bytes of C-like functions, space-padded.
func sourceBytes(size int, seed uint32) []byte {
	data := make([]byte, 0, size)
	rng := xorshift32(seed)
	fn := 0
	for len(data) < size-128 {
		stmt := fmt.Sprintf("int f%d(int x){int y=x*%d;if(y>%d){y-=%d;}return y+f%d(x-1);}\n",
			fn, rng.next()%97+1, rng.next()%1000, rng.next()%50, fn/2)
		data = append(data, stmt...)
		fn++
	}
	return spacePadded(data, size)
}

// spacePadded copies data into size bytes, filling the rest with spaces.
func spacePadded(data []byte, size int) []byte {
	padded := make([]byte, size)
	n := copy(padded, data)
	for i := n; i < size; i++ {
		padded[i] = ' '
	}
	return padded
}

// Run implements Workload: per-byte lexing through the raw pointer.
func (w *Clang) Run(env *jni.Env) error {
	n := w.src.Len()
	return withCritical(env, w.src, func(p mte.Ptr) error {
		tokens, functions, depth := 0, 0, 0
		i := 0
		for i < n {
			c := env.LoadByte(p.Add(int64(i))) // checked per-byte access
			switch {
			case c == '{':
				depth++
				tokens++
				i++
			case c == '}':
				depth--
				if depth == 0 {
					functions++
				}
				tokens++
				i++
			case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
				for i < n {
					c = env.LoadByte(p.Add(int64(i)))
					if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
						break
					}
					i++
				}
				tokens++
			case c >= '0' && c <= '9':
				for i < n {
					c = env.LoadByte(p.Add(int64(i)))
					if c < '0' || c > '9' {
						break
					}
					i++
				}
				tokens++
			case c == ' ' || c == '\n' || c == '\t':
				i++
			default:
				tokens++
				i++
			}
		}
		w.tokens, w.functions = tokens, functions
		return nil
	})
}

// Verify implements Workload.
func (w *Clang) Verify() error {
	if w.tokens < 100 || w.functions < 1 {
		return fmt.Errorf("Clang: implausible lex (tokens=%d functions=%d)", w.tokens, w.functions)
	}
	return nil
}

// TextProcessing stands in for GB6 "Text Processing": word frequency and
// sentence statistics over a document. INTENSIVE pattern, like Clang.
type TextProcessing struct {
	size      int
	text      *vm.Object
	words     int
	sentences int
}

// NewTextProcessing builds the workload at the given scale.
func NewTextProcessing(s Scale) *TextProcessing {
	size := 256 << 10
	if s == ScaleSmall {
		size = 8 << 10
	}
	return &TextProcessing{size: size}
}

// Name implements Workload.
func (w *TextProcessing) Name() string { return "Text Processing" }

// Pattern implements Workload.
func (w *TextProcessing) Pattern() Pattern { return Intensive }

// Setup implements Workload.
func (w *TextProcessing) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindByte, seeded("prose", w.size, 0x7E47, proseBytes))
	w.text = arr
	return err
}

// proseBytes generates size bytes of words and sentences, space-padded.
func proseBytes(size int, seed uint32) []byte {
	words := []string{"memory", "tag", "native", "heap", "pointer", "java", "android", "check"}
	data := make([]byte, 0, size)
	rng := xorshift32(seed)
	for len(data) < size-32 {
		data = append(data, words[rng.next()%uint32(len(words))]...)
		if rng.next()%9 == 0 {
			data = append(data, '.')
		}
		data = append(data, ' ')
	}
	return spacePadded(data, size)
}

// Run implements Workload: per-character scan with a rolling word hash.
func (w *TextProcessing) Run(env *jni.Env) error {
	n := w.text.Len()
	freq := make(map[uint32]int, 64)
	return withCritical(env, w.text, func(p mte.Ptr) error {
		words, sentences := 0, 0
		var h uint32
		inWord := false
		for i := 0; i < n; i++ {
			if i&0xFFFF == 0 { // amortized mid-phase cancellation poll
				if err := checkpoint(env); err != nil {
					return err
				}
			}
			c := env.LoadByte(p.Add(int64(i))) // checked per-byte access
			switch {
			case c >= 'a' && c <= 'z':
				h = h*31 + uint32(c)
				inWord = true
			case c == '.':
				sentences++
				fallthrough
			default:
				if inWord {
					words++
					freq[h]++
					h = 0
					inWord = false
				}
			}
		}
		w.words, w.sentences = words, sentences
		return nil
	})
}

// Verify implements Workload.
func (w *TextProcessing) Verify() error {
	if w.words < 50 || w.sentences < 1 {
		return fmt.Errorf("Text Processing: implausible stats (words=%d sentences=%d)", w.words, w.sentences)
	}
	return nil
}
