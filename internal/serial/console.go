package serial

import (
	"strings"

	"netfi/internal/core"
	"netfi/internal/sim"
)

// Console is the external management system's end of the control path: it
// owns both UART directions, the on-board SPI assembler, and the wiring
// into the device's command decoder and output generator. NFTAPE-style
// campaign frameworks drive the injector through a Console, paying real
// serial-line time for every reconfiguration.
//
// The zero value is not usable; construct with NewConsole.
type Console struct {
	k   *sim.Kernel
	dec *core.CommandDecoder

	toBoard *UART
	toHost  *UART
	spi     Assembler

	rxBuf []byte
	lines []string
}

// NewConsole wires a console to dev at the given baud rate (0 selects
// 115200).
func NewConsole(k *sim.Kernel, dev *core.Device, baud int) *Console {
	c := &Console{k: k, dec: core.NewCommandDecoder(dev)}
	// Host -> board: UART bytes arrive at the communications handler,
	// which packs them into SPI frames for the command decoder.
	c.toBoard = NewUART(k, baud, ByteSinkFunc(func(b byte) {
		frames := c.spi.Pack([]byte{b})
		for _, payload := range c.spi.Unpack(frames) {
			c.dec.InputByte(payload)
		}
	}))
	// Board -> host: the output generator's bytes cross the same path in
	// reverse.
	c.toHost = NewUART(k, baud, ByteSinkFunc(c.receive))
	c.dec.SetOutput(func(b byte) { c.toHost.Send([]byte{b}) })
	return c
}

// Send queues a command line for transmission; the response arrives later
// in simulated time (see OnResponse / Responses).
func (c *Console) Send(cmd string) {
	if !strings.HasSuffix(cmd, "\n") {
		cmd += "\n"
	}
	c.toBoard.SendString(cmd)
}

// receive assembles response lines from the board.
func (c *Console) receive(b byte) {
	if b != '\n' {
		c.rxBuf = append(c.rxBuf, b)
		return
	}
	c.lines = append(c.lines, string(c.rxBuf))
	c.rxBuf = c.rxBuf[:0]
}

// Responses returns every response line received so far.
func (c *Console) Responses() []string { return c.lines }

// LastResponse returns the most recent response line, or "".
func (c *Console) LastResponse() string {
	if len(c.lines) == 0 {
		return ""
	}
	return c.lines[len(c.lines)-1]
}
