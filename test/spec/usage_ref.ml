(* Record-based reference implementation of {!Usage}: one mutable boxed
   record per accounting principal, charges as plain field updates.

   This was the production accumulator until the struct-of-arrays
   arena inside {!Usage} replaced it; it survives as the executable
   specification (the [Multilevel_ref] pattern) — trivially auditable
   against the paper's §4.1/§4.4 semantics, and held in lockstep with
   the arena-backed {!Usage} by a QCheck property over random charge
   sequences, including the saturate-vs-raise negative-memory rule. *)

module Simtime = Engine.Simtime

exception Negative_memory of { have : int; delta : int }

type t = {
  mutable cpu_user : Simtime.span;
  mutable cpu_kernel : Simtime.span;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable memory_bytes : int;
  mutable kernel_objects : int;
  mutable disk_reads : int;
  mutable disk_bytes : int;
  mutable disk_time : Simtime.span;
}

let create () =
  {
    cpu_user = Simtime.span_zero;
    cpu_kernel = Simtime.span_zero;
    rx_packets = 0;
    rx_bytes = 0;
    tx_packets = 0;
    tx_bytes = 0;
    memory_bytes = 0;
    kernel_objects = 0;
    disk_reads = 0;
    disk_bytes = 0;
    disk_time = Simtime.span_zero;
  }

let charge_cpu t ~kernel span =
  if kernel then t.cpu_kernel <- Simtime.span_add t.cpu_kernel span
  else t.cpu_user <- Simtime.span_add t.cpu_user span

let charge_rx t ~packets ~bytes =
  t.rx_packets <- t.rx_packets + packets;
  t.rx_bytes <- t.rx_bytes + bytes

let charge_tx t ~packets ~bytes =
  t.tx_packets <- t.tx_packets + packets;
  t.tx_bytes <- t.tx_bytes + bytes

let charge_memory t ~strict delta =
  let balance = t.memory_bytes + delta in
  if balance < 0 then
    if strict then raise (Negative_memory { have = t.memory_bytes; delta })
    else t.memory_bytes <- 0
  else t.memory_bytes <- balance

let charge_disk t ~bytes span =
  t.disk_reads <- t.disk_reads + 1;
  t.disk_bytes <- t.disk_bytes + bytes;
  t.disk_time <- Simtime.span_add t.disk_time span

let incr_kernel_objects t = t.kernel_objects <- t.kernel_objects + 1
let decr_kernel_objects t = t.kernel_objects <- t.kernel_objects - 1
let cpu_total t = Simtime.span_add t.cpu_user t.cpu_kernel
let cpu_user t = t.cpu_user
let cpu_kernel t = t.cpu_kernel
let rx_packets t = t.rx_packets
let rx_bytes t = t.rx_bytes
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let memory_bytes t = t.memory_bytes
let kernel_objects t = t.kernel_objects
let disk_reads t = t.disk_reads
let disk_bytes t = t.disk_bytes
let disk_time t = t.disk_time

let reset (t : t) =
  t.cpu_user <- Simtime.span_zero;
  t.cpu_kernel <- Simtime.span_zero;
  t.rx_packets <- 0;
  t.rx_bytes <- 0;
  t.tx_packets <- 0;
  t.tx_bytes <- 0;
  t.memory_bytes <- 0;
  t.kernel_objects <- 0;
  t.disk_reads <- 0;
  t.disk_bytes <- 0;
  t.disk_time <- Simtime.span_zero
