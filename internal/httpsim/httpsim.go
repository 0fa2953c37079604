// Package httpsim implements the minimal HTTP/1.1 dialect spoken between
// the study's scanner/crawler and the simulated web servers: request and
// response serialization, status codes, redirects (including the http→https
// upgrade the paper measures), HSTS headers, and HTML pages carrying the
// hyperlinks the crawler follows.
package httpsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Protocol limits.
const (
	maxHeaderLines = 100
	maxLineLen     = 8192
	maxBodyLen     = 4 << 20
)

// Parsing errors.
var (
	ErrMalformedRequest  = errors.New("httpsim: malformed request")
	ErrMalformedResponse = errors.New("httpsim: malformed response")
	ErrBodyTooLarge      = errors.New("httpsim: body exceeds limit")
)

// Field is one header line.
type Field struct {
	Key, Value string
}

// Header is a message's header fields in wire order. Parsed headers carry
// lower-cased keys. A message has a handful of fields, so a linear scan
// beats building a map per message.
type Header []Field

// Get returns the value of the field named key, matched without regard to
// case. A repeated field resolves to its last value.
func (h Header) Get(key string) (string, bool) {
	for i := len(h) - 1; i >= 0; i-- {
		if strings.EqualFold(h[i].Key, key) {
			return h[i].Value, true
		}
	}
	return "", false
}

// inlineFields is how many header fields a parsed message stores without
// a separate allocation; the study's peers send at most five.
const inlineFields = 6

// Request is a parsed HTTP request.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
	Body   []byte
	fields [inlineFields]Field
}

// Response is a parsed HTTP response.
type Response struct {
	StatusCode int
	Header     Header
	Body       []byte
	fields     [inlineFields]Field
}

// HSTS reports whether the response carries a Strict-Transport-Security
// header (§8.2's HSTS preload recommendation).
func (r *Response) HSTS() bool {
	_, ok := r.Header.Get("strict-transport-security")
	return ok
}

// Location returns the redirect target, if any.
func (r *Response) Location() string {
	v, _ := r.Header.Get("location")
	return v
}

// IsRedirect reports whether the status code denotes a redirect.
func (r *Response) IsRedirect() bool {
	return r.StatusCode == 301 || r.StatusCode == 302 || r.StatusCode == 307 || r.StatusCode == 308
}

// bufPool recycles the serialization buffers WriteRequestBody and
// WriteResponse build wire bytes in: the buffer is fully written to the
// connection before the call returns, so it holds no live state.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// WriteRequest sends a body-less request over the connection.
func WriteRequest(w io.Writer, method, host, path string) error {
	return WriteRequestBody(w, method, host, path, "", nil)
}

// WriteRequestBody sends a request carrying a body (POST-style).
func WriteRequestBody(w io.Writer, method, host, path, contentType string, body []byte) error {
	if path == "" {
		path = "/"
	}
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nUser-Agent: govhttps-scanner/1.0\r\nConnection: close\r\n"...)
	if contentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, contentType...)
		b = append(b, "\r\n"...)
	}
	if len(body) > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	_, err := w.Write(b)
	*bp = b
	bufPool.Put(bp)
	if err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// httpProto is the protocol prefix both start-line parsers check for.
var httpProto = []byte("HTTP/1.")

// ReadRequest parses a request from the connection.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	i1 := bytes.IndexByte(line, ' ')
	i2 := -1
	if i1 >= 0 {
		i2 = bytes.IndexByte(line[i1+1:], ' ')
	}
	if i1 < 0 || i2 < 0 || !bytes.HasPrefix(line[i1+1+i2+1:], httpProto) {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line)
	}
	req := &Request{
		Method: internToken(line[:i1]),
		Path:   string(line[i1+1 : i1+1+i2]),
	}
	req.Header, err = readHeaders(br, req.fields[:0])
	if err != nil {
		return nil, err
	}
	req.Host, _ = req.Header.Get("host")
	if cl, ok := req.Header.Get("content-length"); ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformedRequest, cl)
		}
		if n > maxBodyLen {
			return nil, ErrBodyTooLarge
		}
		req.Body = make([]byte, n)
		if _, err := io.ReadFull(br, req.Body); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// brPool recycles the response readers Get/Post allocate: responses are
// fully consumed by ReadResponse, so the reader holds no live state when
// the call returns.
var brPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

func readPooled(conn net.Conn) (*Response, error) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(conn)
	resp, err := ReadResponse(br)
	br.Reset(nil)
	brPool.Put(br)
	return resp, err
}

// ReadRequestConn parses one request from conn using a pooled reader. The
// request is fully consumed before the call returns, so the reader carries
// no state back into the pool.
func ReadRequestConn(conn net.Conn) (*Request, error) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(conn)
	req, err := ReadRequest(br)
	br.Reset(nil)
	brPool.Put(br)
	return req, err
}

// Post performs one POST over an established connection and parses the
// response.
func Post(conn net.Conn, host, path, contentType string, body []byte) (*Response, error) {
	if err := WriteRequestBody(conn, "POST", host, path, contentType, body); err != nil {
		return nil, err
	}
	return readPooled(conn)
}

// WriteResponse sends a response with the given status, headers and body
// in a single write. Content-Length and Connection are managed
// automatically.
func WriteResponse(w io.Writer, status int, header Header, body []byte) error {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, StatusText(status)...)
	b = append(b, "\r\n"...)
	for _, f := range header {
		b = append(b, f.Key...)
		b = append(b, ": "...)
		b = append(b, f.Value...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\nConnection: close\r\n\r\n"...)
	b = append(b, body...)
	_, err := w.Write(b)
	*bp = b
	bufPool.Put(bp)
	return err
}

// ReadResponse parses a response from the connection.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	i1 := bytes.IndexByte(line, ' ')
	if i1 < 0 || !bytes.HasPrefix(line, httpProto) {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformedResponse, line)
	}
	sb := line[i1+1:]
	if i2 := bytes.IndexByte(sb, ' '); i2 >= 0 {
		sb = sb[:i2]
	}
	status, err := atoiBytes(sb)
	if err != nil {
		//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
		return nil, fmt.Errorf("%w: bad status code %q", ErrMalformedResponse, sb)
	}
	resp := &Response{StatusCode: status}
	resp.Header, err = readHeaders(br, resp.fields[:0])
	if err != nil {
		return nil, err
	}
	n := 0
	if cl, ok := resp.Header.Get("content-length"); ok {
		n, err = strconv.Atoi(cl)
		if err != nil || n < 0 {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformedResponse, cl)
		}
		if n > maxBodyLen {
			return nil, ErrBodyTooLarge
		}
	}
	resp.Body = make([]byte, n)
	if _, err := io.ReadFull(br, resp.Body); err != nil {
		return nil, err
	}
	return resp, nil
}

// readLine reads one CRLF-terminated line and returns it without the
// trailing "\r\n" chars, as a slice into the reader's buffer — valid only
// until the next read, so callers copy what they keep. Lines longer than
// the buffer are accumulated (rare; protocol lines are short).
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		acc := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(acc) > maxLineLen {
				return nil, ErrMalformedRequest
			}
			line, err = br.ReadSlice('\n')
			acc = append(acc, line...)
		}
		line = acc
	}
	if err != nil {
		return nil, err
	}
	if len(line) > maxLineLen {
		return nil, ErrMalformedRequest
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// readHeaders appends the header fields up to the blank line to h, keys
// lower-cased, and returns the extended header.
func readHeaders(br *bufio.Reader, h Header) (Header, error) {
	for i := 0; i < maxHeaderLines; i++ {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			return h, nil
		}
		c := bytes.IndexByte(line, ':')
		if c < 0 {
			//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
			return nil, fmt.Errorf("%w: bad header line %q", ErrMalformedRequest, line)
		}
		h = append(h, Field{headerKey(bytes.TrimSpace(line[:c])), internToken(bytes.TrimSpace(line[c+1:]))})
	}
	//lint:allow hotalloc cold malformed-input branch: formats only when returning a protocol error
	return nil, fmt.Errorf("%w: too many header lines", ErrMalformedRequest)
}

// headerKey lower-cases a header name, returning the canonical string for
// the protocol's well-known headers without allocating.
func headerKey(k []byte) string {
	lower, ascii := true, true
	for _, c := range k {
		if c >= utf8.RuneSelf {
			ascii = false
			break
		}
		if 'A' <= c && c <= 'Z' {
			lower = false
		}
	}
	if !ascii {
		return strings.ToLower(string(k))
	}
	if !lower {
		var buf [64]byte
		if len(k) > len(buf) {
			return strings.ToLower(string(k))
		}
		for i, c := range k {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		k = buf[:len(k)]
	}
	switch string(k) {
	case "host":
		return "host"
	case "user-agent":
		return "user-agent"
	case "connection":
		return "connection"
	case "content-type":
		return "content-type"
	case "content-length":
		return "content-length"
	case "location":
		return "location"
	case "strict-transport-security":
		return "strict-transport-security"
	}
	return string(k)
}

// internToken returns canonical strings for the dialect's fixed tokens
// (methods and the header values every simulated peer sends), avoiding a
// per-message allocation.
func internToken(b []byte) string {
	switch string(b) {
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "close":
		return "close"
	case "text/html":
		return "text/html"
	case "govhttps-scanner/1.0":
		return "govhttps-scanner/1.0"
	}
	return string(b)
}

// atoiBytes is strconv.Atoi for a byte slice: an allocation-free
// all-digits fast path, falling back to Atoi (and its exact error
// semantics) for anything else.
func atoiBytes(b []byte) (int, error) {
	if n := len(b); n > 0 && n <= 9 {
		v, ok := 0, true
		for _, c := range b {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if ok {
			return v, nil
		}
	}
	return strconv.Atoi(string(b))
}

// StatusText returns the reason phrase for the status codes the study uses.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 307:
		return "Temporary Redirect"
	case 308:
		return "Permanent Redirect"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// Get performs one GET over an established connection (plain or TLS) and
// parses the response.
func Get(conn net.Conn, host, path string) (*Response, error) {
	if err := WriteRequest(conn, "GET", host, path); err != nil {
		return nil, err
	}
	return readPooled(conn)
}
