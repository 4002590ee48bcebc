package dc

import "fmt"

// Mux models the §8 acquisition front end: "Each of the 2 MUX cards can
// switch between 4 sets of 4 channels each yielding up to 32 channels of
// data ... all channels are equipped with an RMS detector which can be
// configure[d] to provide a digital signal when the RMS of the incoming
// signal exceeds a programmed value. This allows for real-time and constant
// alarming for all sensors."
//
// The DSP card digitizes one 4-channel bank at a time; the Mux selects the
// bank and maps a lane of it to its channel. The RMS detectors are
// hardware the model leaves out: the vibration test screens each frame
// with the DC's ChannelGuard instead.
type Mux struct {
	cards           int
	banksPerCard    int
	channelsPerBank int
	selected        int // currently selected bank (absolute index)
}

// NewMux builds the paper's configuration: 2 cards × 4 banks × 4 channels.
func NewMux() *Mux {
	return NewMuxWith(2, 4, 4)
}

// NewMuxWith builds a custom multiplexer geometry.
func NewMuxWith(cards, banksPerCard, channelsPerBank int) *Mux {
	return &Mux{
		cards:           cards,
		banksPerCard:    banksPerCard,
		channelsPerBank: channelsPerBank,
	}
}

// Banks returns the number of selectable banks.
func (m *Mux) Banks() int { return m.cards * m.banksPerCard }

// BankSize returns channels per bank (the DSP card width).
func (m *Mux) BankSize() int { return m.channelsPerBank }

// SelectBank switches the DSP card input to the given bank.
func (m *Mux) SelectBank(bank int) error {
	if bank < 0 || bank >= m.Banks() {
		return fmt.Errorf("dc: bank %d out of range (have %d)", bank, m.Banks())
	}
	m.selected = bank
	return nil
}

// ChannelOf maps (selected bank, lane) to the absolute channel index.
func (m *Mux) ChannelOf(lane int) (int, error) {
	if lane < 0 || lane >= m.channelsPerBank {
		return 0, fmt.Errorf("dc: lane %d out of range", lane)
	}
	return m.selected*m.channelsPerBank + lane, nil
}
