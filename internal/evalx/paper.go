package evalx

// This file records the reference numbers published in the paper so the
// reproduction can print paper-vs-measured comparisons. Values come from
// Table 1 (per-process message characterisation) and from the qualitative
// description of Figures 3 and 4 in Sections 5.1-5.3.

// table1Key identifies one row of Table 1.
type table1Key struct {
	App   string
	Procs int
}

// table1Ref holds the paper's values for one row.
type table1Ref struct {
	P2P     int
	Coll    int
	Sizes   int
	Senders int
}

// PaperTable1 is Table 1 of the paper: per-process point-to-point and
// collective message counts and the number of frequently appearing message
// sizes and senders.
var PaperTable1 = map[table1Key]table1Ref{
	{"bt", 4}:  {P2P: 2416, Coll: 9, Sizes: 3, Senders: 3},
	{"bt", 9}:  {P2P: 3651, Coll: 9, Sizes: 3, Senders: 7},
	{"bt", 16}: {P2P: 4826, Coll: 9, Sizes: 3, Senders: 7},
	{"bt", 25}: {P2P: 6030, Coll: 9, Sizes: 3, Senders: 7},

	{"cg", 4}:  {P2P: 1679, Coll: 0, Sizes: 2, Senders: 2},
	{"cg", 8}:  {P2P: 2942, Coll: 0, Sizes: 2, Senders: 2},
	{"cg", 16}: {P2P: 2942, Coll: 0, Sizes: 2, Senders: 2},
	{"cg", 32}: {P2P: 4204, Coll: 0, Sizes: 2, Senders: 2},

	{"lu", 4}:  {P2P: 31472, Coll: 18, Sizes: 2, Senders: 2},
	{"lu", 8}:  {P2P: 31474, Coll: 18, Sizes: 4, Senders: 2},
	{"lu", 16}: {P2P: 31474, Coll: 18, Sizes: 2, Senders: 2},
	{"lu", 32}: {P2P: 47211, Coll: 18, Sizes: 4, Senders: 2},

	{"is", 4}:  {P2P: 11, Coll: 89, Sizes: 3, Senders: 4},
	{"is", 8}:  {P2P: 11, Coll: 177, Sizes: 3, Senders: 8},
	{"is", 16}: {P2P: 11, Coll: 353, Sizes: 3, Senders: 16},
	{"is", 32}: {P2P: 11, Coll: 705, Sizes: 3, Senders: 32},

	{"sweep3d", 6}:  {P2P: 1438, Coll: 36, Sizes: 2, Senders: 3},
	{"sweep3d", 16}: {P2P: 949, Coll: 36, Sizes: 2, Senders: 2},
	{"sweep3d", 32}: {P2P: 949, Coll: 36, Sizes: 2, Senders: 2},
}

// PaperFigure1Period is the period of the BT.9 sender and size streams at
// process 3 reported in Section 4.1 / Figure 1.
const PaperFigure1Period = 18
