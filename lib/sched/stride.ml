module Container = Rescont.Container
module Attrs = Rescont.Attrs

type cstate = { mutable pass : float }

let make () =
  let runq = Runq.create () in
  let states : (int, cstate) Hashtbl.t = Hashtbl.create 64 in
  let state_of container =
    let cid = Container.id container in
    match Hashtbl.find_opt states cid with
    | Some s -> s
    | None ->
        let s = { pass = 0. } in
        Hashtbl.replace states cid s;
        s
  in
  let tickets container = float_of_int (max 1 (Container.attrs container).Attrs.priority) in
  let pick ~now:_ =
    let with_work = Runq.containers_with_work runq in
    let regular, idle =
      List.partition (fun c -> not (Attrs.is_idle_class (Container.attrs c))) with_work
    in
    let pool = if regular <> [] then regular else idle in
    match pool with
    | [] -> Task.none
    | _ :: _ ->
        (* Late joiners start at the minimum pass so they cannot monopolise. *)
        let floor_pass =
          List.fold_left (fun acc c -> Float.min acc (state_of c).pass) infinity pool
        in
        List.iter
          (fun c ->
            let s = state_of c in
            if s.pass < floor_pass then s.pass <- floor_pass)
          pool;
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some c
              | Some b -> if (state_of c).pass < (state_of b).pass then Some c else acc)
            None pool
        in
        (match best with None -> Task.none | Some c -> Runq.front runq c)
  in
  let charge ~container ~now:_ span =
    let s = state_of container in
    s.pass <- s.pass +. (float_of_int (Engine.Simtime.span_to_ns span) /. tickets container);
    Runq.rotate runq container
  in
  {
    Policy.name = "stride";
    enqueue = Runq.enqueue runq;
    dequeue = Runq.dequeue runq;
    requeue = Runq.requeue runq;
    pick;
    charge;
    next_release = (fun ~now:_ -> None);
    runnable_count = (fun () -> Runq.count runq);
  }
