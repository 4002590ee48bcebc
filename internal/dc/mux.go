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
	selected int // currently selected bank (absolute index)
}

// The §8 geometry: 2 cards × 4 banks × 4 channels.
const (
	muxBanks        = 2 * 4
	channelsPerBank = 4
)

// NewMux builds the paper's multiplexer with bank 0 selected.
func NewMux() *Mux { return &Mux{} }

// SelectBank switches the DSP card input to the given bank.
func (m *Mux) SelectBank(bank int) error {
	if bank < 0 || bank >= muxBanks {
		return fmt.Errorf("dc: bank %d out of range (have %d)", bank, muxBanks)
	}
	m.selected = bank
	return nil
}

// ChannelOf maps (selected bank, lane) to the absolute channel index.
func (m *Mux) ChannelOf(lane int) (int, error) {
	if lane < 0 || lane >= channelsPerBank {
		return 0, fmt.Errorf("dc: lane %d out of range", lane)
	}
	return m.selected*channelsPerBank + lane, nil
}
