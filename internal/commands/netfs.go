package commands

import (
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

func init() {
	register("curl", curl)
	register("gunzip", gunzip)
	register("file", fileCmd)
}

// curl simulates the paper's network fetches hermetically: a URL
// "proto://host/p/a/t/h" resolves to the file (or directory listing)
// p/a/t/h under the PASH_CURL_ROOT directory. Directory URLs produce an
// ls -l-style index, matching how Fig. 1 scrapes NOAA's FTP listing.
// -s and -L are accepted and ignored; -o writes to a file.
func curl(ctx *Context) error {
	outFile := ""
	var urls []string
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-s" || a == "-L" || a == "-sL" || a == "-Ls":
		case strings.HasPrefix(a, "-o"):
			v := a[2:]
			if v == "" {
				i++
				if i >= len(args) {
					return ctx.Errorf("-o requires an argument")
				}
				v = args[i]
			}
			outFile = v
		case strings.HasPrefix(a, "-"):
			return ctx.Errorf("unsupported flag %q", a)
		default:
			urls = append(urls, a)
		}
	}
	if len(urls) == 0 {
		return ctx.Errorf("missing URL")
	}
	root := ctx.Getenv("PASH_CURL_ROOT")
	if root == "" {
		return ctx.Errorf("PASH_CURL_ROOT is not set (offline simulation root)")
	}
	out := ctx.Stdout
	if outFile != "" {
		f, err := ctx.FS.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	for _, u := range urls {
		p := urlToPath(u)
		f, err := OSFS{Dir: root}.Open(p)
		if err != nil {
			// Mimic curl: diagnostic on stderr, non-zero exit.
			fmt.Fprintf(ctx.Stderr, "curl: (22) %v\n", err)
			return &ExitError{Code: 22}
		}
		_, cerr := io.Copy(out, f)
		f.Close()
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// urlToPath strips the scheme and keeps host/path as a relative path.
func urlToPath(u string) string {
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	return strings.TrimPrefix(u, "/")
}

// gunzip decompresses gzip streams (as a filter or from file operands).
func gunzip(ctx *Context) error {
	var operands []string
	for _, a := range ctx.Args {
		switch {
		case a == "-c" || a == "-d" || a == "-k" || a == "-f":
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
			return ctx.Errorf("unsupported flag %q", a)
		default:
			operands = append(operands, a)
		}
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	for _, r := range readers {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
		// A stream may contain several concatenated members; gzip.Reader
		// handles that with Multistream (default true).
		if _, err := io.Copy(ctx.Stdout, zr); err != nil {
			zr.Close()
			return err
		}
		if err := zr.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fileCmd guesses file types: each operand is opened and sniffed,
// printing "name: description" like file(1). With no operands, names are
// read from stdin one per line (how the shortest-scripts benchmark uses
// it via xargs).
func fileCmd(ctx *Context) error {
	var operands []string
	for _, a := range ctx.Args {
		if a != "-" && strings.HasPrefix(a, "-") {
			return ctx.Errorf("unsupported flag %q", a)
		}
		operands = append(operands, a)
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	classify := func(name string) error {
		f, err := ctx.FS.Open(name)
		if err != nil {
			return lw.WriteString(fmt.Sprintf("%s: cannot open\n", name))
		}
		defer f.Close()
		buf := make([]byte, 512)
		n, _ := io.ReadFull(f, buf)
		desc := sniffType(buf[:n])
		return lw.WriteString(fmt.Sprintf("%s: %s\n", name, desc))
	}
	if len(operands) == 0 {
		err := EachLine(ctx.stdin(), func(line []byte) error {
			name := strings.TrimSpace(string(line))
			if name == "" {
				return nil
			}
			return classify(name)
		})
		if err != nil {
			return err
		}
		return lw.Flush()
	}
	for _, name := range operands {
		if err := classify(name); err != nil {
			return err
		}
	}
	return lw.Flush()
}

func sniffType(b []byte) string {
	switch {
	case len(b) == 0:
		return "empty"
	case len(b) >= 4 && b[0] == 0x7f && b[1] == 'E' && b[2] == 'L' && b[3] == 'F':
		return "ELF 64-bit LSB executable"
	case len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b:
		return "gzip compressed data"
	case strings.HasPrefix(string(b), "#!"):
		line := string(b)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		interp := strings.TrimSpace(strings.TrimPrefix(line, "#!"))
		switch {
		case strings.Contains(interp, "python"):
			return "Python script, ASCII text executable"
		case strings.Contains(interp, "perl"):
			return "Perl script text executable"
		case strings.Contains(interp, "sh"):
			return "POSIX shell script, ASCII text executable"
		default:
			return "script text executable"
		}
	default:
		for _, c := range b {
			if c == 0 {
				return "data"
			}
		}
		return "ASCII text"
	}
}
