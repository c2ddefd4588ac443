type t = int Stm.tvar array

let make ~accounts ~initial = Array.init accounts (fun _ -> Stm.tvar initial)

let balance t i = Stm.read t.(i)

let transfer t ~from_ ~to_ ~amount =
  Stm.atomically (fun () ->
      let b = Stm.read t.(from_) in
      if b < amount then false
      else begin
        Stm.write t.(from_) (b - amount);
        Stm.write t.(to_) (Stm.read t.(to_) + amount);
        true
      end)

let total t =
  Stm.atomically (fun () ->
      Array.fold_left (fun acc a -> acc + Stm.read a) 0 t)
