package tlssim

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/simclock"
)

// Quirk selects a server misbehaviour observed in the wild and reflected in
// Table 2's exception rows.
type Quirk int

// Server misbehaviours.
const (
	// QuirkNone completes the handshake normally.
	QuirkNone Quirk = iota
	// QuirkSSLv2Only insists on SSLv2 regardless of the client's offer,
	// producing the "unsupported SSL protocol" failure.
	QuirkSSLv2Only
	// QuirkWrongVersionNumber frames the ServerHello under a garbage
	// record version ("wrong ssl version number").
	QuirkWrongVersionNumber
	// QuirkInternalErrorAlert aborts with a TLSv1 internal_error alert.
	QuirkInternalErrorAlert
	// QuirkHandshakeFailureAlert aborts with an SSLv3 handshake_failure
	// alert.
	QuirkHandshakeFailureAlert
	// QuirkProtocolVersionAlert aborts with a TLSv1 protocol_version alert.
	QuirkProtocolVersionAlert
	// QuirkTruncateHandshake sends the ServerHello and then tears the
	// connection down, so the client sees a truncated handshake (EOF where
	// the Certificate message should be) — the response-truncation fault
	// model at the TLS layer.
	QuirkTruncateHandshake
)

// ErrHandshakeTruncated marks a handshake the server deliberately cut
// short (QuirkTruncateHandshake).
var ErrHandshakeTruncated = fmt.Errorf("tlssim: handshake truncated by server")

// ServerConfig configures a simulated TLS server. A config whose Chain is
// fixed may be shared across handshakes; the encoded Certificate message is
// built once on first use.
type ServerConfig struct {
	// Chain is served to clients, leaf first.
	Chain []*cert.Certificate
	// MinVersion and MaxVersion bound the versions the server accepts.
	MinVersion, MaxVersion Version
	// Quirk selects a misbehaviour; QuirkNone for a healthy server.
	Quirk Quirk

	// certMsgOnce lazily caches the encoded Certificate handshake message
	// for Chain, so long-lived servers stop re-serializing it per dial.
	certMsgOnce sync.Once
	certMsg     []byte
}

// certMessage returns the Certificate handshake message for cfg.Chain,
// encoding it on first call.
func (cfg *ServerConfig) certMessage() []byte {
	cfg.certMsgOnce.Do(func() {
		cfg.certMsg = append([]byte{msgCertificate}, cert.EncodeChain(cfg.Chain)...)
	})
	return cfg.certMsg
}

// ClientConfig configures the scanning client.
type ClientConfig struct {
	// MinVersion and MaxVersion bound acceptable protocol versions. The
	// study's scanner accepts SSLv3 through TLS 1.3, so SSLv2-only servers
	// fail with ErrUnsupportedProtocol.
	MinVersion, MaxVersion Version
	// ServerName is the SNI value, also used for hostname verification by
	// the caller.
	ServerName string
	// HandshakeTimeout bounds the handshake when positive.
	HandshakeTimeout time.Duration
	// Clock supplies the instant the handshake deadline is measured from,
	// so timeouts run on the same timeline as the scanner's retry/backoff
	// machinery. nil defaults to the wall clock (simclock.Real).
	Clock simclock.Clock
	// ChainCache, when non-nil, deduplicates parsed certificate chains
	// across handshakes that present the same payload (the scanner shares
	// one cache across all probes).
	ChainCache *cert.ChainCache
}

// ConnectionState describes a completed handshake.
type ConnectionState struct {
	// Version is the negotiated protocol version.
	Version Version
	// Chain is the certificate chain the server presented, leaf first.
	Chain []*cert.Certificate
	// ServerName echoes the SNI sent by the client.
	ServerName string
}

// Conn is a handshaken connection carrying application data records.
// It implements net.Conn.
type Conn struct {
	raw      net.Conn
	state    ConnectionState
	readRest []byte
	// hdr receives each record header. A header array on the stack would
	// escape through the io.Reader call and cost an allocation per record.
	hdr [recordHeaderLen]byte
}

// ConnectionState returns the negotiated parameters.
func (c *Conn) ConnectionState() ConnectionState { return c.state }

// Read implements net.Conn, delivering application-data payload bytes.
func (c *Conn) Read(p []byte) (int, error) {
	for len(c.readRest) == 0 {
		typ, _, payload, err := readRecord(c.raw, &c.hdr)
		if err != nil {
			return 0, err
		}
		switch typ {
		case recordAppData:
			c.readRest = payload
		case recordAlert:
			if len(payload) >= 2 {
				return 0, AlertError{ProtocolVersion: c.state.Version, Description: payload[1]}
			}
			return 0, ErrHandshakeState
		default:
			return 0, ErrHandshakeState
		}
	}
	n := copy(p, c.readRest)
	c.readRest = c.readRest[n:]
	return n, nil
}

// Write implements net.Conn, framing p as application data.
func (c *Conn) Write(p []byte) (int, error) {
	const chunk = 16 * 1024
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		if err := writeRecord(c.raw, recordAppData, c.state.Version, p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.raw.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// ClientHandshake performs the client side of the handshake over raw.
// On success it returns a connection ready for application data.
func ClientHandshake(raw net.Conn, cfg *ClientConfig) (*Conn, error) {
	if deadline, ok := cfg.handshakeDeadline(); ok {
		raw.SetDeadline(deadline)
		defer raw.SetDeadline(time.Time{})
	}
	hello := clientHello{MinVersion: cfg.MinVersion, MaxVersion: cfg.MaxVersion, ServerName: cfg.ServerName}
	if err := writeRecord(raw, recordHandshake, cfg.MaxVersion, hello.marshal()); err != nil {
		return nil, fmt.Errorf("tlssim: sending ClientHello: %w", err)
	}
	// Records are read straight from raw: on simnet a read is a memory
	// copy, so a buffered reader per handshake would only add an
	// allocation. c is built up front for its header scratch.
	c := &Conn{raw: raw}

	// ServerHello.
	typ, recVer, payload, err := readRecord(raw, &c.hdr)
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading ServerHello: %w", err)
	}
	if !knownVersion(recVer) {
		return nil, ErrWrongVersionNumber
	}
	if typ == recordAlert {
		if len(payload) >= 2 {
			return nil, AlertError{ProtocolVersion: recVer, Description: payload[1]}
		}
		return nil, ErrHandshakeState
	}
	if typ != recordHandshake {
		return nil, ErrHandshakeState
	}
	sh, err := parseServerHello(payload)
	if err != nil {
		return nil, err
	}
	if sh.Version < cfg.MinVersion || sh.Version > cfg.MaxVersion {
		return nil, ErrUnsupportedProtocol
	}

	// Certificate.
	typ, _, payload, err = readRecord(raw, &c.hdr)
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading Certificate: %w", err)
	}
	if typ != recordHandshake || len(payload) < 1 || payload[0] != msgCertificate {
		return nil, ErrHandshakeState
	}
	var chain []*cert.Certificate
	if cfg.ChainCache != nil {
		chain, err = cfg.ChainCache.Parse(payload[1:])
	} else {
		chain, err = cert.ParseChain(payload[1:])
	}
	if err != nil {
		return nil, fmt.Errorf("tlssim: parsing certificate chain: %w", err)
	}

	// Finished.
	typ, _, payload, err = readRecord(raw, &c.hdr)
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading Finished: %w", err)
	}
	if typ != recordHandshake || len(payload) < 1 || payload[0] != msgFinished {
		return nil, ErrHandshakeState
	}

	c.state = ConnectionState{
		Version:    sh.Version,
		Chain:      chain,
		ServerName: cfg.ServerName,
	}
	return c, nil
}

// handshakeDeadline computes the absolute deadline bounding the handshake,
// measured on the configured clock rather than wall time. Virtual-clock
// runs get no deadline at all, mirroring scanner.applyDeadline: the
// collapsing clock is advanced by other goroutines' sleeps, so an absolute
// deadline derived from it would expire scheduling-dependently and break
// same-seed determinism — simulated timeouts are modeled at the dial/fault
// layer instead.
func (cfg *ClientConfig) handshakeDeadline() (time.Time, bool) {
	if cfg.HandshakeTimeout <= 0 {
		return time.Time{}, false
	}
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.Real{}
	}
	if _, virtual := clk.(*simclock.Virtual); virtual {
		return time.Time{}, false
	}
	return clk.Now().Add(cfg.HandshakeTimeout), true
}

// ServerHandshake performs the server side of the handshake over raw,
// applying the configured quirk.
func ServerHandshake(raw net.Conn, cfg *ServerConfig) (*Conn, error) {
	c := &Conn{raw: raw}
	typ, _, payload, err := readRecord(raw, &c.hdr)
	if err != nil {
		return nil, fmt.Errorf("tlssim: reading ClientHello: %w", err)
	}
	if typ != recordHandshake {
		return nil, ErrHandshakeState
	}
	ch, err := parseClientHello(payload)
	if err != nil {
		return nil, err
	}

	switch cfg.Quirk {
	case QuirkInternalErrorAlert:
		writeRecord(raw, recordAlert, TLS1_0, []byte{2, AlertInternalError})
		return nil, AlertError{ProtocolVersion: TLS1_0, Description: AlertInternalError}
	case QuirkHandshakeFailureAlert:
		writeRecord(raw, recordAlert, SSLv3, []byte{2, AlertHandshakeFailure})
		return nil, AlertError{ProtocolVersion: SSLv3, Description: AlertHandshakeFailure}
	case QuirkProtocolVersionAlert:
		writeRecord(raw, recordAlert, TLS1_0, []byte{2, AlertProtocolVersion})
		return nil, AlertError{ProtocolVersion: TLS1_0, Description: AlertProtocolVersion}
	default:
		// The non-alert quirks (none, SSLv2-only, wrong version number,
		// truncation) shape the ServerHello exchange below.
	}

	version := negotiate(ch, cfg)
	recVersion := version
	if cfg.Quirk == QuirkWrongVersionNumber {
		recVersion = Version(0x4a4a) // garbage record version
	}
	if err := writeRecord(raw, recordHandshake, recVersion, serverHello{Version: version}.marshal()); err != nil {
		return nil, err
	}
	if cfg.Quirk == QuirkWrongVersionNumber {
		// The client will abort after the malformed record.
		return nil, ErrWrongVersionNumber
	}
	if cfg.Quirk == QuirkSSLv2Only {
		// The client rejects the SSLv2 selection; nothing more to send.
		return nil, ErrUnsupportedProtocol
	}
	if cfg.Quirk == QuirkTruncateHandshake {
		// Tear the connection down where the Certificate should follow.
		raw.Close()
		return nil, ErrHandshakeTruncated
	}

	if err := writeRecord(raw, recordHandshake, version, cfg.certMessage()); err != nil {
		return nil, err
	}
	if err := writeRecord(raw, recordHandshake, version, []byte{msgFinished}); err != nil {
		return nil, err
	}
	c.state = ConnectionState{
		Version:    version,
		Chain:      cfg.Chain,
		ServerName: ch.ServerName,
	}
	return c, nil
}

// negotiate picks the protocol version the server answers with.
func negotiate(ch clientHello, cfg *ServerConfig) Version {
	if cfg.Quirk == QuirkSSLv2Only {
		return SSLv2
	}
	v := cfg.MaxVersion
	if ch.MaxVersion < v {
		v = ch.MaxVersion
	}
	if v < cfg.MinVersion {
		// No overlap: the server still answers with its minimum, which the
		// client will reject as unsupported.
		v = cfg.MinVersion
	}
	return v
}

// DefaultClientConfig returns the scanner's client settings: SSLv3 through
// TLS 1.3, mirroring the permissive probing posture of the study's scans.
func DefaultClientConfig(serverName string) *ClientConfig {
	return &ClientConfig{
		MinVersion: SSLv3,
		MaxVersion: TLS1_3,
		ServerName: serverName,
	}
}
