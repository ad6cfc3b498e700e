(* Most-specific-filter demultiplex, reference semantics: a single fold
   over every listen socket.  [compare_specificity] ranks the more
   specific filter first (negative result), and ties break to the
   earliest-bound socket (lowest listen id), so overlapping filters of
   equal specificity demultiplex identically whatever order the listens
   were added in. *)

module Socket = Netsim.Socket
module Filter = Netsim.Filter

let lookup listens ~port ~src =
  List.fold_left
    (fun best l ->
      if l.Socket.port <> port || not (Filter.matches l.Socket.filter src) then best
      else
        match best with
        | None -> Some l
        | Some b ->
            let c = Filter.compare_specificity l.Socket.filter b.Socket.filter in
            if c < 0 || (c = 0 && l.Socket.listen_id < b.Socket.listen_id) then Some l
            else best)
    None listens
