(* The event core is the hierarchical timer wheel and nothing else: a
   simulator IS its wheel, and the clock IS the wheel's lower bound.
   The two coincide at every step.  A firing event's instant is where
   extraction leaves the bound, and [run_until] commits the bound to its
   horizon exactly when the clock jumps there.  An event is the wheel's
   unboxed stamped handle, so neither scheduling nor firing allocates:
   [Timer_wheel.extract] hands back a node index, not an option.

   Zero-delay events — [post]/[post_at], and [at]/[after] at the clock —
   are ordinary inserts at the lower bound.  They land in the bucket of
   the events already queued at that instant, behind them, which is
   exactly (instant, scheduling) order. *)

type t = (unit -> unit) Timer_wheel.t
type event = (unit -> unit) Timer_wheel.handle

let create () = Timer_wheel.create ()
let now t = Simtime.of_ns (Timer_wheel.lower_bound t)

let[@inline never] in_the_past t time =
  invalid_arg
    (Format.asprintf "Sim.at: %a is before current time %a" Simtime.pp time Simtime.pp (now t))

let check_time t time = if Simtime.(time < now t) then in_the_past t time

(* One-shot events use the wheel's stamped oneshot insertion: the node's
   arena slot recycles as soon as it fires or is cancelled, and a cancel
   arriving after the firing is refused by the generation stamp — so the
   cancellable [at]/[after] traffic (scheduler slice-end events, TCP-ish
   timeouts) is allocation- and leak-free in steady state. *)
let at t time f =
  check_time t time;
  Timer_wheel.insert_oneshot t ~prio:(Simtime.to_ns time) f

let after t span f = at t (Simtime.add (now t) (Simtime.span_max span Simtime.span_zero)) f

(* Fire-and-forget scheduling: most events in a run — scheduler kicks,
   packet deliveries, think-time wakeups — are never cancelled.  They
   take the same fire-once node as [at]; its handle is an immediate int,
   so dropping it allocates nothing. *)
let post_at t time f =
  check_time t time;
  ignore (Timer_wheel.insert_oneshot t ~prio:(Simtime.to_ns time) f)

let post t span f = post_at t (Simtime.add (now t) (Simtime.span_max span Simtime.span_zero)) f

(* The wheel's cancel recycles even a pinned node, so a series
   cancelled from its own tick loses the node the tick would re-arm. *)
let cancel t event = Timer_wheel.cancel t event
let pending t = Timer_wheel.length t

(* Fire the node [extract] just unlinked: the lower bound, and so the
   clock, already stands at its instant.  [take] is applied to exactly its
   two arguments: over-applying a function the compiler cannot see into
   (separate compilation) builds a partial application, 5 words a fire. *)
let fire t i =
  let f = Timer_wheel.take t i in
  f ()

let step t =
  (not (Timer_wheel.is_empty t))
  && begin
    fire t (Timer_wheel.extract t ~horizon:max_int);
    true
  end

(* A failed [extract] commits the lower bound, and so the clock, to the
   horizon when that is an advance. *)
let rec run_until_ns t horizon =
  let i = Timer_wheel.extract t ~horizon in
  if i >= 0 then begin
    fire t i;
    run_until_ns t horizon
  end

let run_until t horizon = run_until_ns t (Simtime.to_ns horizon)
let run t = while step t do () done

(* A series is one pinned wheel node and one closure: each tick re-arms
   the node it fired from, so ticks allocate nothing, and the series'
   handle never changes.  A tick whose [f] cancelled the series finds the
   handle stale and stops. *)
let every t period f =
  if not (Simtime.span_is_positive period) then invalid_arg "Sim.every: period must be positive";
  let self = ref None in
  let tick () =
    f ();
    match !self with
    | Some h when Timer_wheel.valid t h ->
        Timer_wheel.rearm t h ~prio:(Simtime.to_ns (Simtime.add (now t) period))
    | Some _ | None -> ()
  in
  let h = Timer_wheel.insert t ~prio:(Simtime.to_ns (Simtime.add (now t) period)) tick in
  self := Some h;
  h
