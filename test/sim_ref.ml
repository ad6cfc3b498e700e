(* A reference simulator: Engine.Sim's contract stated as directly as a
   binary heap keyed by (instant, insertion sequence) allows, and nothing
   more.  Events fire in that order, [run_until] peeks before it pops, and
   a periodic series re-inserts itself under a fresh handle after every
   tick unless it was cancelled.  test_timer_wheel runs the same schedules
   on this and on Engine.Sim and compares everything they let a caller
   observe: firing order and instants, cancel results, pending counts and
   the clock. *)

module Simtime = Engine.Simtime

type t = { mutable clock : Simtime.t; queue : (unit -> unit) Heapq.t }
type series = { mutable cancelled : bool; mutable queued : Heapq.handle option }
type event = One of Heapq.handle | Series of series

let create () = { clock = Simtime.zero; queue = Heapq.create () }
let now t = t.clock

let at t time f =
  if Simtime.(time < t.clock) then invalid_arg "Sim_ref.at: time is in the past";
  One (Heapq.insert t.queue ~prio:(Simtime.to_ns time) f)

let after t span f = at t (Simtime.add t.clock (Simtime.span_max span Simtime.span_zero)) f
let post_at t time f = ignore (at t time f)
let post t span f = ignore (after t span f)

let cancel t = function
  | One h -> Heapq.cancel t.queue h
  | Series s -> (
      (not s.cancelled)
      &&
      (s.cancelled <- true;
       match s.queued with Some h -> Heapq.cancel t.queue h | None -> false))

let pending t = Heapq.length t.queue

let step t =
  match Heapq.pop_min t.queue with
  | None -> false
  | Some (prio, f) ->
      t.clock <- Simtime.of_ns prio;
      f ();
      true

let run_until t horizon =
  let rec loop () =
    match Heapq.peek_min_prio t.queue with
    | Some prio when prio <= Simtime.to_ns horizon ->
        ignore (step t);
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  if Simtime.(horizon > t.clock) then t.clock <- horizon

let run t = while step t do () done

let every t period f =
  if not (Simtime.span_is_positive period) then invalid_arg "Sim_ref.every: period must be positive";
  let s = { cancelled = false; queued = None } in
  let rec tick () =
    f ();
    if not s.cancelled then arm ()
  and arm () =
    s.queued <- Some (Heapq.insert t.queue ~prio:(Simtime.to_ns (Simtime.add t.clock period)) tick)
  in
  arm ();
  Series s
