open Tm_history

(* The placed set is a bitmap over transaction indices, encoded in Bytes so
   any number of transactions is supported; copies are cheap at test sizes. *)
module Mask = struct
  let create n = Bytes.make ((n + 7) / 8) '\000'

  let mem m i =
    Char.code (Bytes.get m (i / 8)) land (1 lsl (i mod 8)) <> 0

  let add m i =
    let m' = Bytes.copy m in
    let b = Char.code (Bytes.get m' (i / 8)) lor (1 lsl (i mod 8)) in
    Bytes.set m' (i / 8) (Char.chr b);
    m'

  let key m = Bytes.to_string m
end

let search ts =
  let txns = Array.of_list ts in
  let n = Array.length txns in
  (* preds.(j) lists the indices that must be placed before j. *)
  let preds =
    Array.init n (fun j ->
        List.filter
          (fun i -> Transaction.precedes txns.(i) txns.(j))
          (List.init n Fun.id))
  in
  (* Candidate ordering: try the history's own completion order first (the
     global position of each transaction's last event), which is a witness
     for well-behaved TMs and makes the common case near-linear. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> Int.compare txns.(a).Transaction.last_pos txns.(b).last_pos)
    order;
  let visited : (string * (int * int) list, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec go mask store placed count =
    if count = n then Some (List.rev placed)
    else
      let state_key = (Mask.key mask, Store.bindings store) in
      if Hashtbl.mem visited state_key then None
      else begin
        Hashtbl.add visited state_key ();
        let try_candidate acc j =
          match acc with
          | Some _ -> acc
          | None ->
              if Mask.mem mask j then None
              else if not (List.for_all (Mask.mem mask) preds.(j)) then None
              else if not (Legality.transaction_legal store txns.(j)) then
                None
              else
                go (Mask.add mask j)
                  (Legality.commit_effect store txns.(j))
                  (txns.(j) :: placed)
                  (count + 1)
        in
        Array.fold_left try_candidate None order
      end
  in
  go (Mask.create n) Store.initial [] 0
