module Container = Rescont.Container
module Attrs = Rescont.Attrs

let make ~rng () =
  let runq = Runq.create () in
  let tickets container = max 1 (Container.attrs container).Attrs.priority in
  let pick ~now:_ =
    let with_work = Runq.containers_with_work runq in
    let regular, idle =
      List.partition (fun c -> not (Attrs.is_idle_class (Container.attrs c))) with_work
    in
    let pool = if regular <> [] then regular else idle in
    match pool with
    | [] -> Task.none
    | _ :: _ ->
        let total = List.fold_left (fun acc c -> acc + tickets c) 0 pool in
        let winner = Engine.Rng.int rng total in
        let rec find acc = function
          | [] -> Task.none
          | c :: rest ->
              let acc = acc + tickets c in
              if winner < acc then Runq.front runq c else find acc rest
        in
        find 0 pool
  in
  let charge ~container ~now:_ _span = Runq.rotate runq container in
  {
    Policy.name = "lottery";
    enqueue = Runq.enqueue runq;
    dequeue = Runq.dequeue runq;
    requeue = Runq.requeue runq;
    pick;
    charge;
    next_release = (fun ~now:_ -> None);
    runnable_count = (fun () -> Runq.count runq);
  }
