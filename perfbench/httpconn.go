package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection driven synchronously by
// its owner: the request is written and the whole response read on the
// calling goroutine, so a closed-loop client's work stays on its own
// goroutine with no transport goroutines of its own.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte
}

func newConn(addr string) *httpConn { return &httpConn{addr: addr} }

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do sends one request and returns the status and the response body. The
// body aliases a buffer reused by the next call. reqID > 0 is sent as
// X-Bench-Req, which the traced run uses to join server spans to client
// samples; the daemon ignores it.
func (h *httpConn) do(method, path string, body []byte, reqID int64) (int, []byte, error) {
	if h.c == nil {
		c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		h.close()
		return 0, nil, err
	}
	w := append(h.wbuf[:0], method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: segdb\r\n"...)
	if reqID > 0 {
		w = append(w, "X-Bench-Req: "...)
		w = strconv.AppendInt(w, reqID, 10)
		w = append(w, "\r\n"...)
	}
	if body != nil {
		w = append(w, "Content-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(body)), 10)
		w = append(w, "\r\n"...)
	}
	w = append(w, "\r\n"...)
	w = append(w, body...)
	h.wbuf = w
	if _, err := h.c.Write(w); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	b := h.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			h.close()
			return 0, nil, rerr
		}
	}
	resp.Body.Close()
	h.body = b
	if resp.Close {
		h.close()
	}
	return resp.StatusCode, b, nil
}

// get is do for a GET whose body the caller keeps.
func (h *httpConn) get(path string) (int, []byte, error) {
	code, b, err := h.do("GET", path, nil, 0)
	return code, append([]byte(nil), b...), err
}
