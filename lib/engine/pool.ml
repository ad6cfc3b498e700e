(* One process-wide pool of parked worker domains.  See pool.mli.

   A batch hands out task indices from an atomic counter; the caller and
   up to [seats] workers pull from it until it runs dry, so a batch
   completes even if no worker ever joins it.  Whoever finishes the last
   index marks the batch complete under the mutex and wakes the caller.
   Only one batch is in flight at a time: a batch submitted while
   another is running (from inside one of its tasks, or from an
   unrelated domain) runs serially on its submitter, so nested use never
   keeps more domains busy than the outer batch asked for. *)

type batch = {
  task : int -> unit;
  n : int;
  next : int Atomic.t; (* next unclaimed index *)
  finished : int Atomic.t; (* indices run or skipped *)
  seats : int Atomic.t; (* workers still allowed to join *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t; (* first one wins *)
  mutable complete : bool; (* under [mutex] *)
}

let mutex = Mutex.create ()
let work_ready = Condition.create ()
let batch_done = Condition.create ()

(* All under [mutex]. *)
let current : batch option ref = ref None
let generation = ref 0 (* bumped per submitted batch *)
let workers : unit Domain.t list ref = ref []
let shutdown = ref false

let drain b =
  let rec pull () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      (if Option.is_none (Atomic.get b.failure) then
         try b.task i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set b.failure None (Some (e, bt))));
      if 1 + Atomic.fetch_and_add b.finished 1 = b.n then begin
        Mutex.lock mutex;
        b.complete <- true;
        current := None;
        Condition.broadcast batch_done;
        Mutex.unlock mutex
      end;
      pull ()
    end
  in
  pull ()

let rec worker_loop seen =
  Mutex.lock mutex;
  while (not !shutdown) && (!generation = seen || !current = None) do
    Condition.wait work_ready mutex
  done;
  if !shutdown then Mutex.unlock mutex
  else begin
    let gen = !generation in
    let b = Option.get !current in
    Mutex.unlock mutex;
    if Atomic.fetch_and_add b.seats (-1) > 0 then drain b;
    worker_loop gen
  end

let stop_workers () =
  Mutex.lock mutex;
  shutdown := true;
  Condition.broadcast work_ready;
  let ws = !workers in
  workers := [];
  Mutex.unlock mutex;
  List.iter Domain.join ws

(* Called with [mutex] held. *)
let ensure_workers want =
  if !workers = [] then at_exit stop_workers;
  let have = List.length !workers in
  for _ = have + 1 to want do
    let gen = !generation in
    workers := Domain.spawn (fun () -> worker_loop gen) :: !workers
  done

let run_serial n f =
  for i = 0 to n - 1 do
    f i
  done

let run ~domains n f =
  if domains < 1 then invalid_arg "Pool.run: domains must be >= 1";
  let helpers = min domains n - 1 in
  if helpers <= 0 then run_serial n f
  else begin
    Mutex.lock mutex;
    if !current <> None then begin
      Mutex.unlock mutex;
      run_serial n f
    end
    else begin
      let b =
        {
          task = f;
          n;
          next = Atomic.make 0;
          finished = Atomic.make 0;
          seats = Atomic.make helpers;
          failure = Atomic.make None;
          complete = false;
        }
      in
      ensure_workers helpers;
      current := Some b;
      incr generation;
      Condition.broadcast work_ready;
      Mutex.unlock mutex;
      drain b;
      Mutex.lock mutex;
      while not b.complete do
        Condition.wait batch_done mutex
      done;
      Mutex.unlock mutex;
      match Atomic.get b.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end
