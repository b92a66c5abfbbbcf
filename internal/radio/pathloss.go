package radio

import (
	"fmt"
	"math"

	"mlorass/internal/rng"
)

// PathLoss is a log-distance path-loss model with log-normal shadowing:
//
//	PL(d) = RefLossDB + 10 · Exponent · log10(d / RefDistM) + X
//
// where X ~ N(0, ShadowSigmaDB²). The defaults reproduce the sub-urban LoRa
// calibration the paper uses (path-loss exponent 2.32, Petäjäjärvi et al.,
// ITST 2015).
type PathLoss struct {
	// Exponent is the path-loss exponent n (dimensionless).
	Exponent float64
	// RefDistM is the reference distance d0 in metres.
	RefDistM Meters
	// RefLossDB is the measured loss at the reference distance.
	RefLossDB DB
	// ShadowSigmaDB is the shadowing standard deviation; 0 disables
	// shadowing.
	ShadowSigmaDB DB
}

// DefaultPathLoss returns the paper's sub-urban model: n = 2.32, d0 = 40 m,
// PL(d0) = 107.41 dB, σ = 7.8 dB.
func DefaultPathLoss() PathLoss {
	return PathLoss{Exponent: 2.32, RefDistM: 40, RefLossDB: 107.41, ShadowSigmaDB: 7.8}
}

// Validate reports configuration errors.
func (pl PathLoss) Validate() error {
	if pl.Exponent <= 0 {
		return fmt.Errorf("radio: path-loss exponent %v must be positive", pl.Exponent)
	}
	if pl.RefDistM <= 0 {
		return fmt.Errorf("radio: reference distance %v must be positive", pl.RefDistM)
	}
	if pl.ShadowSigmaDB < 0 {
		return fmt.Errorf("radio: shadow sigma %v must be non-negative", pl.ShadowSigmaDB)
	}
	return nil
}

// MeanLossDB returns the deterministic (shadowing-free) path loss in dB at
// distance d metres. Distances below the reference distance clamp to it, so
// co-located nodes see the reference loss rather than a negative loss.
func (pl PathLoss) MeanLossDB(d Meters) DB {
	if d < pl.RefDistM {
		d = pl.RefDistM
	}
	return pl.RefLossDB + DB(10*pl.Exponent*math.Log10(float64(d)/float64(pl.RefDistM)))
}

// LossDB returns the path loss at distance d with one shadowing draw from r.
// A nil r yields the mean loss.
func (pl PathLoss) LossDB(d Meters, r *rng.Source) DB {
	loss := pl.MeanLossDB(d)
	if r != nil && pl.ShadowSigmaDB > 0 {
		loss += DB(r.Norm(0, float64(pl.ShadowSigmaDB)))
	}
	return loss
}

// RSSI returns the received signal strength in dBm for a transmit power of
// tx at distance d, with one shadowing draw from r (nil r => mean).
func (pl PathLoss) RSSI(tx DBm, d Meters, r *rng.Source) DBm {
	return tx.Minus(pl.LossDB(d, r))
}

// MeanRSSI returns the shadowing-free RSSI.
func (pl PathLoss) MeanRSSI(tx DBm, d Meters) DBm {
	return tx.Minus(pl.MeanLossDB(d))
}
