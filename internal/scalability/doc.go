// Package scalability implements the three mechanisms Section 2 of the
// paper proposes for making MPI implementations scale to thousands of
// processes by exploiting message predictability:
//
//   - BufferManager (Section 2.1, memory reduction): instead of statically
//     pre-allocating one receive buffer per peer — 16 KB x 10 000 peers is
//     160 MB per process — the receiver allocates buffers only for the
//     senders its predictor expects next, falling back to the slow
//     ask-permission path on a misprediction.
//
//   - CreditManager (Section 2.2, control flow): the receiver hands out
//     credits for predicted messages ahead of time, so eager sends are
//     only accepted when memory has been reserved for them; unpredicted
//     messages must ask first. This bounds the receiver's memory exposure
//     in incast situations (many senders hitting one receiver).
//
//   - ProtocolAdvisor (Section 2.3, rendezvous elimination): when the
//     receiver predicts a large message from a given sender it
//     pre-allocates the memory and tells the sender before the send is
//     issued, so the message travels with the fast eager path instead of
//     paying the three-message rendezvous handshake.
//
// All three consume the same (sender, size) forecasts produced by a
// MessagePredictor — two prediction strategies (internal/strategy), one
// per stream, the DPD by default — and can be replayed over any recorded
// trace, which is how the corresponding benchmark experiments are
// generated.
package scalability
