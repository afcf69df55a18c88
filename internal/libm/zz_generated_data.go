// Code generated by rlibm-gen. DO NOT EDIT.
//
// Polynomial coefficients, adapted coefficients, special-case tables and
// domain cuts produced by the internal/core pipeline (input fp32_e8, target fp34_e8).

package libm

import "math"

var _ = math.Inf

var expData = funcData{
	domLo: -0x1.9fe3682cd3be5p+06, domHi: 0x1.62e42feda39fp+06,
	loVal: 0x1p-151, hiVal: 0x1.ffffff8p+127,
	tinyLo: -0x1.0000004000001p-25, tinyHi: 0x1.ffffff000000ap-25,
	tinyLoVal: 0x1.ffffff8p-01, tinyHiVal: 0x1.0000008p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02}},
				{lo: -0x1.75p-25, coeffs: []float64{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02}, a4: &[5]float64{-0x1.3b6a96fe7f9f6p-02, 0x1.54ec9d7286d5p+01, -0x1.fe7ddb1fc3536p+01, 0x1.71e3d5c56a5eep+02, 0x1.c6e2ebdc29af5p-02}},
				{lo: -0x1.75p-25, coeffs: []float64{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02}, a4: &[5]float64{-0x1.a5a563cabf447p-01, -0x1.517145d507ef6p+02, 0x1.18fb57a177d6ap+03, 0x1.d5ac825ac4991p+03, -0x1.0c18e23214f42p-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02}},
				{lo: -0x1.75p-25, coeffs: []float64{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.00000000001f6p+00, 0x1.00000024f8152p+00, 0x1.00017718e0309p-01, 0x1.5d4f393d94cbfp-03, 0x1.c6e2ebdc29af5p-02}},
				{lo: -0x1.75p-25, coeffs: []float64{0x1.0000000000008p+00, 0x1.0000001c24d75p+00, 0x1.fffdfd0bc8f5bp-02, 0x1.5af27cac0a65ep-03, -0x1.0c18e23214f42p-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
	},
}

var exp2Data = funcData{
	domLo: -0x1.2c00000000001p+07, domHi: 0x1.fffffffd1d572p+06,
	loVal: 0x1p-151, hiVal: 0x1.ffffff8p+127,
	tinyLo: -0x1.715476af0d4d9p-25, tinyHi: 0x1.7154759a0df53p-24,
	tinyLoVal: 0x1.ffffff8p-01, tinyHiVal: 0x1.0000008p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.0000000000004p+00, 0x1.62e42ff2c0c5cp-01, 0x1.ebfbfeaabd07bp-03, 0x1.c66eb4d6be7f8p-05, 0x1.705654f4995e7p-09, 0x1.b235e2092600bp-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.0000000000004p+00, 0x1.62e42ff2c0c5cp-01, 0x1.ebfbfeaabd07bp-03, 0x1.c66eb4d6be7f8p-05, 0x1.705654f4995e7p-09, 0x1.b235e2092600bp-02}, a5: &[6]float64{-0x1.da30e76af82b7p-03, 0x1.589b6445c15afp-01, 0x1.eec7d2dd451fap+00, 0x1.dd958e0ccbc7cp-01, 0x1.09cd37eb55723p-01, 0x1.b235e2092600bp-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.0000000000004p+00, 0x1.62e42ff2c0c5cp-01, 0x1.ebfbfeaabd07bp-03, 0x1.c66eb4d6be7f8p-05, 0x1.705654f4995e7p-09, 0x1.b235e2092600bp-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.0000000000004p+00, 0x1.62e42ff2c0c5cp-01, 0x1.ebfbfeaabd07bp-03, 0x1.c66eb4d6be7f8p-05, 0x1.705654f4995e7p-09, 0x1.b235e2092600bp-02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
	},
}

var exp10Data = funcData{
	domLo: -0x1.693c6a27ae2f7p+05, domHi: 0x1.344135083ae84p+05,
	loVal: 0x1p-151, hiVal: 0x1.ffffff8p+127,
	tinyLo: -0x1.bcb7b1c19c3d5p-27, tinyHi: 0x1.bcb7b0741278cp-26,
	tinyLoVal: 0x1.ffffff8p-01, tinyHiVal: 0x1.0000008p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1p+00, 0x1.26bb1bbb55b2bp+01, 0x1.53524c77e0edap+01, 0x1.047061c9eb03ap+01, 0x1.2bbace449e7b7p+00, 0x1.e77cc08d3b278p-03}},
			},
			specialBits: []uint64{0x4000000000000000, 0x4010000000000000, 0x4014000000000000, 0x401c000000000000},
			specialVals: []float64{0x1.9p+06, 0x1.388p+13, 0x1.86ap+16, 0x1.312dp+23},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.ffffffffffff8p-01, 0x1.26bb1bc4059ep+01, 0x1.535263a14cf1bp+01, 0x1.041b27381434cp+01, 0x1.73a3f05a2c714p-02, 0x1.3577fe2dc2c41p+08}, a5: &[6]float64{-0x1.d91fced14f821p-05, 0x1.4942d90ca1806p-05, 0x1.183ca5b4e82edp-07, 0x1.db86aaed65dfp-03, 0x1.3db1803f30325p-10, 0x1.3577fe2dc2c41p+08}},
			},
			specialBits: []uint64{0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000},
			specialVals: []float64{0x1.4p+03, 0x1.9p+06, 0x1.f4p+09, 0x1.388p+13, 0x1.86ap+16, 0x1.e848p+19, 0x1.312dp+23, 0x1.7d784p+26, 0x1.dcd65p+29, 0x1.2a05f2p+33},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.fffffffffffeap-01, 0x1.26bb1bc402cep+01, 0x1.535263a62597dp+01, 0x1.041b4fdf3559ep+01, 0x1.73632c8fe2952p-02, 0x1.34bf83529953ep+08}},
			},
			specialBits: []uint64{0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000},
			specialVals: []float64{0x1.4p+03, 0x1.9p+06, 0x1.f4p+09, 0x1.388p+13, 0x1.86ap+16, 0x1.e848p+19, 0x1.312dp+23, 0x1.7d784p+26, 0x1.dcd65p+29, 0x1.2a05f2p+33},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.fffffffffffeap-01, 0x1.26bb1bc402cep+01, 0x1.535263a62597dp+01, 0x1.041b4fdf3559ep+01, 0x1.73632c8fe2952p-02, 0x1.34bf83529953ep+08}},
			},
			specialBits: []uint64{0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4022000000000000, 0x4024000000000000},
			specialVals: []float64{0x1.4p+03, 0x1.9p+06, 0x1.f4p+09, 0x1.388p+13, 0x1.86ap+16, 0x1.e848p+19, 0x1.312dp+23, 0x1.7d784p+26, 0x1.dcd65p+29, 0x1.2a05f2p+33},
		},
	},
}

var logData = funcData{
	domLo: 0x0p+00, domHi: math.Inf(1),
	loVal: 0x0p+00, hiVal: 0x0p+00,
	tinyLo: 0x0p+00, tinyHi: 0x0p+00,
	tinyLoVal: 0x0p+00, tinyHiVal: 0x0p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03}},
				{lo: 0x1.57655e7f2414ap-09, coeffs: []float64{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03}, a4: &[5]float64{-0x1.09aec3bbc39ffp-01, 0x1.d8f52734cb15ap-05, 0x1.761c6890ba737p-03, -0x1.c6ce6f0d4a602p-07, -0x1.49fc4e6090a35p+03}},
				{lo: 0x1.57655e7f2414ap-09, coeffs: []float64{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01}, a4: &[5]float64{-0x1.8682c4b10d749p-01, -0x1.a087f39acc78ep-01, 0x1.49e491aa17f39p+01, 0x1.6f54162f8ed4dp+00, -0x1.4cd6d61a6dd99p-01}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03}},
				{lo: 0x1.57655e7f2414ap-09, coeffs: []float64{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.ee52ce9474d58p-37, 0x1.000001356031bp+00, -0x1.000dcfe088d2dp-01, 0x1.8f64917c3c47p-02, -0x1.49fc4e6090a35p+03}},
				{lo: 0x1.57655e7f2414ap-09, coeffs: []float64{-0x1.cb6af623702b5p-33, 0x1.00000327df164p+00, -0x1.0007f07740023p-01, 0x1.5dc4f1ca79c0cp-02, -0x1.4cd6d61a6dd99p-01}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
	},
}

var log2Data = funcData{
	domLo: 0x0p+00, domHi: math.Inf(1),
	loVal: 0x0p+00, hiVal: 0x0p+00,
	tinyLo: 0x0p+00, tinyHi: 0x0p+00,
	tinyLoVal: 0x0p+00, tinyHiVal: 0x0p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.a1e45e74c4bd8p-39, 0x1.715476538bafbp+00, -0x1.7153f164a980fp-01, 0x1.e9163f794ad3ap-02, 0x1.ebfe654496165p-02, -0x1.03c248ac35842p+06}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.a1e45e74c4bd8p-39, 0x1.715476538bafbp+00, -0x1.7153f164a980fp-01, 0x1.e9163f794ad3ap-02, 0x1.ebfe654496165p-02, -0x1.03c248ac35842p+06}, a5: &[6]float64{-0x1.18c076b565ed6p-04, 0x1.3400a1d1b4395p-05, -0x1.53155415256e6p-06, 0x1.112cf78ac6342p-02, 0x1.665beceb15469p-08, -0x1.03c248ac35842p+06}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.a1e45e74c4bd8p-39, 0x1.715476538bafbp+00, -0x1.7153f164a980fp-01, 0x1.e9163f794ad3ap-02, 0x1.ebfe654496165p-02, -0x1.03c248ac35842p+06}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{-0x1.a1e45e74c4bd8p-39, 0x1.715476538bafbp+00, -0x1.7153f164a980fp-01, 0x1.e9163f794ad3ap-02, 0x1.ebfe654496165p-02, -0x1.03c248ac35842p+06}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
	},
}

var log10Data = funcData{
	domLo: 0x0p+00, domHi: math.Inf(1),
	loVal: 0x0p+00, hiVal: 0x0p+00,
	tinyLo: 0x0p+00, tinyHi: 0x0p+00,
	tinyLoVal: 0x0p+00, tinyHiVal: 0x0p+00,
	impls: [numSchemes]implData{
		{
			scheme: SchemeHorner,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06}},
				{lo: 0x1.57e33c678cf1ap-10, coeffs: []float64{0x1.6da838bcf61c3p-31, 0x1.bcb751d0ba81fp-02, -0x1.ba657e2de4a64p-03, -0x1.030d3b82b9a6p-02, 0x1.9dd7eb70d239dp+05}},
				{lo: 0x1.5765465465466p-09, coeffs: []float64{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01}},
				{lo: 0x1.01578cbe9d5e3p-08, coeffs: []float64{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeKnuth,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.abfcb6a6c4b22p-40, 0x1.bcb7af6557332p-02, -0x1.bc71addde2597p-03, -0x1.f2839e9fc3dacp-05, 0x1.6b1c2fd56e0eap+06}, a4: &[5]float64{-0x1.002beecd9367bp-01, 0x1.07851401c8939p-03, -0x1.3ef956498823p-07, -0x1.f57a698f46621p-07, 0x1.6b1c2fd56e0eap+06}},
				{lo: 0x1.57e33c678cf1ap-10, coeffs: []float64{0x1.6da8544a6eef3p-31, 0x1.bcb751d0b413ep-02, -0x1.ba657e0a4c88fp-03, -0x1.030d512899b3cp-02, 0x1.9dd7fefa2405dp+05}, a4: &[5]float64{-0x1.01407e967e7b7p-01, 0x1.0e24796706f0ap-03, -0x1.26cb0fe590388p-06, -0x1.ec5cdfc092afep-07, 0x1.9dd7fefa2405dp+05}},
				{lo: 0x1.5765465465466p-09, coeffs: []float64{0x1.3d376990b3e69p-31, 0x1.bcb78c65f3f85p-02, -0x1.bc4d1db702c5p-03, 0x1.c1da1b06b2014p-04, 0x1.22326154ae9bbp+01}, a4: &[5]float64{-0x1.e73289988204bp-02, 0x1.0f0caf14b2422p-02, -0x1.80af9ffd92c8ep-02, 0x1.e14479cb820acp-06, 0x1.22326154ae9bbp+01}},
				{lo: 0x1.01578cbe9d5e3p-08, coeffs: []float64{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02}, a4: &[5]float64{-0x1.0d4cd19d8fd6cp-01, 0x1.0e06713dee4ffp-04, 0x1.4bbae3e8b3e95p-03, -0x1.ec503eeb13357p-07, -0x1.39a36914d9f9p+02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrin,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06}},
				{lo: 0x1.57e33c678cf1ap-10, coeffs: []float64{0x1.6da83d45c343cp-31, 0x1.bcb751d0b96e4p-02, -0x1.ba657e27d3194p-03, -0x1.030d3f455656dp-02, 0x1.9dd7eee6d6f95p+05}},
				{lo: 0x1.5765465465466p-09, coeffs: []float64{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01}},
				{lo: 0x1.01578cbe9d5e3p-08, coeffs: []float64{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
		{
			scheme: SchemeEstrinFMA,
			pieces: []pieceData{
				{lo: math.Inf(-1), coeffs: []float64{0x1.abfce2144583dp-40, 0x1.bcb7af6557023p-02, -0x1.bc71add63818cp-03, -0x1.f284600e7b4ecp-05, 0x1.6b1c5cd4afb58p+06}},
				{lo: 0x1.57e33c678cf1ap-10, coeffs: []float64{0x1.6da836cd520e6p-31, 0x1.bcb751d0baf44p-02, -0x1.ba657e30595bcp-03, -0x1.030d3a05548c2p-02, 0x1.9dd7ea181ebc1p+05}},
				{lo: 0x1.5765465465466p-09, coeffs: []float64{0x1.3d37b3ab4fda7p-31, 0x1.bcb78c65e9146p-02, -0x1.bc4d1d90b2756p-03, 0x1.c1d9df45e404fp-04, 0x1.2232ecbfd7fc3p+01}},
				{lo: 0x1.01578cbe9d5e3p-08, coeffs: []float64{-0x1.480a5d46bfe63p-28, 0x1.bcb89a2482d57p-02, -0x1.bea070f87c7bep-03, 0x1.04b69a8b37d31p-02, -0x1.39a36914d9f9p+02}},
			},
			specialBits: []uint64{},
			specialVals: []float64{},
		},
	},
}
