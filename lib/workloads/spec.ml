type t =
  | Pmake of Pmake.cfg
  | Ocean of Ocean.cfg
  | Raytrace of Raytrace.cfg
  | Server of Server.cfg

let name = function
  | Pmake _ -> "pmake"
  | Ocean _ -> "ocean"
  | Raytrace _ -> "raytrace"
  | Server _ -> "server"

let of_name = function
  | "pmake" -> Pmake Pmake.default
  | "ocean" -> Ocean Ocean.default
  | "raytrace" -> Raytrace Raytrace.default
  | other -> invalid_arg ("unknown workload: " ^ other)

let setup sys = function
  | Pmake c -> Pmake.setup sys c
  | Ocean c -> Ocean.setup sys c
  | Raytrace _ | Server _ -> ()

let run sys = function
  | Pmake c -> fst (Pmake.run ~cfg:c sys)
  | Ocean c -> fst (Ocean.run ~cfg:c sys)
  | Raytrace c -> fst (Raytrace.run ~cfg:c sys)
  | Server c -> fst (Server.run ~cfg:c sys)

let verify sys = function
  | Pmake c -> Pmake.verify ~cfg:c sys
  | Ocean c -> Ocean.verify ~cfg:c sys
  | Raytrace c -> Raytrace.verify ~cfg:c sys
  | Server _ -> []
